package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mobbr/internal/core"
)

// entryVersion gates corpus compatibility; bump it when the entry layout
// changes incompatibly so stale files fail loudly.
const entryVersion = 1

// Entry is one minimized reproducer in the corpus. The spec is stored in
// its strict JSON wire form, so an entry that drifts from the codec fails
// to decode instead of silently replaying a different scenario.
type Entry struct {
	V       int             `json:"v"`
	Class   string          `json:"class"`
	Rule    string          `json:"rule,omitempty"`
	Msg     string          `json:"msg,omitempty"`
	GenSeed int64           `json:"gen_seed,omitempty"`
	Repro   string          `json:"repro"`
	Spec    json.RawMessage `json:"spec"`
}

// NewEntry builds a corpus entry from a (usually shrunk) failing spec.
func NewEntry(genSeed int64, spec core.Spec, o Outcome) (Entry, error) {
	data, err := core.EncodeSpec(spec)
	if err != nil {
		return Entry{}, fmt.Errorf("chaos: encoding corpus spec: %w", err)
	}
	return Entry{
		V:       entryVersion,
		Class:   o.Class,
		Rule:    o.Rule,
		Msg:     firstLine(o.Msg),
		GenSeed: genSeed,
		Repro:   core.ReproLine(spec),
		Spec:    data,
	}, nil
}

// Signature mirrors Outcome.Signature for a stored entry.
func (e Entry) Signature() string {
	if e.Rule != "" {
		return e.Class + "/" + e.Rule
	}
	return e.Class
}

// Filename is deterministic in the finding (signature + generator seed),
// so re-discovering a known failure overwrites its entry instead of
// accreting duplicates.
func (e Entry) Filename() string {
	sig := strings.NewReplacer("/", "-", " ", "-").Replace(e.Signature())
	return fmt.Sprintf("%s-seed%d.json", sig, e.GenSeed)
}

// WriteEntry persists the entry under dir (created if needed) and returns
// the file path.
func WriteEntry(dir string, e Entry) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("chaos: corpus dir: %w", err)
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return "", fmt.Errorf("chaos: encoding corpus entry: %w", err)
	}
	path := filepath.Join(dir, e.Filename())
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("chaos: writing corpus entry: %w", err)
	}
	return path, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
