// Command coverbudget fails when a package has more unrun statements than
// its committed budget. It reads a cover profile written by
//
//	go test -coverpkg=./internal/...,./cmd/... -coverprofile=cover.out ./internal/... ./cmd/...
//
// where every test binary reports every covered package, so one block can
// appear once per binary: a block counts as run if any binary ran it.
//
//	go run ./tools/coverbudget cover.out tools/coverbudget/budgets.txt
//
// The budget file holds one "package unrun-statements" pair per line;
// -write rewrites it from the profile. Budgets only go down: -write refuses
// to raise an existing package's budget, so a raise is a hand edit to the
// file that shows in review.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("coverbudget", flag.ContinueOnError)
	fl.SetOutput(stderr)
	write := fl.Bool("write", false, "rewrite the budget file from the profile, lowering budgets only")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: coverbudget [-write] PROFILE BUDGETS")
		return 2
	}
	unrun, total, err := readProfile(fl.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "coverbudget:", err)
		return 1
	}
	budgets, err := readBudgets(fl.Arg(1))
	if err != nil && !(*write && errors.Is(err, fs.ErrNotExist)) {
		fmt.Fprintln(stderr, "coverbudget:", err)
		return 1
	}
	pkgs := make([]string, 0, len(total))
	for p := range total {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	over := 0
	for _, p := range pkgs {
		budget, ok := budgets[p]
		switch {
		case !ok && *write:
			fmt.Fprintf(stdout, "%-28s %4d of %5d unrun, new budget\n", p, unrun[p], total[p])
		case !ok:
			fmt.Fprintf(stdout, "%-28s %4d of %5d unrun, no budget\n", p, unrun[p], total[p])
			over++
		case unrun[p] > budget:
			fmt.Fprintf(stdout, "%-28s %4d of %5d unrun, over the budget of %d\n", p, unrun[p], total[p], budget)
			over++
		default:
			fmt.Fprintf(stdout, "%-28s %4d of %5d unrun (budget %d)\n", p, unrun[p], total[p], budget)
		}
	}
	if over > 0 {
		if *write {
			fmt.Fprintf(stderr, "coverbudget: -write would raise %d budget(s); raise one by editing the file\n", over)
		} else {
			fmt.Fprintf(stderr, "coverbudget: %d package(s) over budget\n", over)
		}
		return 1
	}
	if *write {
		var b strings.Builder
		for _, p := range pkgs {
			fmt.Fprintf(&b, "%s %d\n", p, unrun[p])
		}
		if err := os.WriteFile(fl.Arg(1), []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, "coverbudget:", err)
			return 1
		}
	}
	return 0
}

// readProfile merges the profile's blocks and counts, per package, the
// statements no test binary ran and all statements.
func readProfile(name string) (unrun, total map[string]int, err error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	type block struct {
		stmts int
		run   bool
	}
	blocks := map[string]*block{} // "file:range"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") || line == "" {
			continue
		}
		// file.go:l.c,l.c stmts count
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, nil, fmt.Errorf("malformed profile line %q", line)
		}
		stmts, err1 := strconv.Atoi(fields[1])
		count, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("malformed profile line %q", line)
		}
		b := blocks[fields[0]]
		if b == nil {
			b = &block{stmts: stmts}
			blocks[fields[0]] = b
		}
		b.run = b.run || count > 0
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	unrun, total = map[string]int{}, map[string]int{}
	for pos, b := range blocks {
		file, _, _ := strings.Cut(pos, ":")
		pkg := path.Dir(file)
		total[pkg] += b.stmts
		if !b.run {
			unrun[pkg] += b.stmts
		}
	}
	return unrun, total, nil
}

// readBudgets parses "package count" lines.
func readBudgets(name string) (map[string]int, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		pkg, n, ok := strings.Cut(line, " ")
		count, err := strconv.Atoi(n)
		if !ok || err != nil {
			return nil, fmt.Errorf("%s:%d: want \"package count\", got %q", name, i+1, line)
		}
		out[pkg] = count
	}
	return out, nil
}
