// Package units provides strongly typed bandwidth and data-size quantities
// used throughout the simulator. Keeping bits, bytes, and rates in distinct
// types catches the classic factor-of-eight mistakes at compile time.
package units

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Bandwidth is a data rate in bits per second.
type Bandwidth int64

// Common bandwidth units.
const (
	BitPerSecond Bandwidth = 1
	Kbps                   = 1000 * BitPerSecond
	Mbps                   = 1000 * Kbps
	Gbps                   = 1000 * Mbps
)

// Mbit returns the bandwidth expressed in megabits per second.
func (b Bandwidth) Mbit() float64 { return float64(b) / float64(Mbps) }

// TimeToSend returns how long it takes to send n bytes at rate b.
// It returns 0 for non-positive sizes and panics on a zero rate, since the
// caller would otherwise divide by zero implicitly.
func (b Bandwidth) TimeToSend(n DataSize) time.Duration {
	if n <= 0 {
		return 0
	}
	if b <= 0 {
		panic("units: TimeToSend on non-positive bandwidth")
	}
	bits := float64(n) * 8
	sec := bits / float64(b)
	return time.Duration(sec * float64(time.Second))
}

// BytesIn returns how many bytes can be transmitted at rate b in d.
func (b Bandwidth) BytesIn(d time.Duration) DataSize {
	if d <= 0 || b <= 0 {
		return 0
	}
	return DataSize(float64(b) / 8 * d.Seconds())
}

// String formats the bandwidth with an adaptive unit suffix.
func (b Bandwidth) String() string {
	switch {
	case b >= Gbps:
		return trimFloat(float64(b)/float64(Gbps)) + "Gbps"
	case b >= Mbps:
		return trimFloat(float64(b)/float64(Mbps)) + "Mbps"
	case b >= Kbps:
		return trimFloat(float64(b)/float64(Kbps)) + "Kbps"
	default:
		return strconv.FormatInt(int64(b), 10) + "bps"
	}
}

// ParseBandwidth parses strings like "1Gbps", "20Mbps", "9600bps".
func ParseBandwidth(s string) (Bandwidth, error) {
	s = strings.TrimSpace(s)
	mult := Bandwidth(0)
	var num string
	switch {
	case strings.HasSuffix(s, "Gbps"):
		mult, num = Gbps, strings.TrimSuffix(s, "Gbps")
	case strings.HasSuffix(s, "Mbps"):
		mult, num = Mbps, strings.TrimSuffix(s, "Mbps")
	case strings.HasSuffix(s, "Kbps"):
		mult, num = Kbps, strings.TrimSuffix(s, "Kbps")
	case strings.HasSuffix(s, "bps"):
		mult, num = BitPerSecond, strings.TrimSuffix(s, "bps")
	default:
		return 0, fmt.Errorf("units: bandwidth %q missing unit suffix", s)
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad bandwidth %q: %v", s, err)
	}
	if f < 0 {
		return 0, fmt.Errorf("units: negative bandwidth %q", s)
	}
	return Bandwidth(f * float64(mult)), nil
}

// BandwidthFromBytes converts a byte count over a duration into a rate.
func BandwidthFromBytes(n DataSize, d time.Duration) Bandwidth {
	if d <= 0 {
		return 0
	}
	return Bandwidth(float64(n) * 8 / d.Seconds())
}

// DataSize is an amount of data in bytes.
type DataSize int64

// Common data-size units.
const (
	Byte DataSize = 1
	KB            = 1024 * Byte
	MB            = 1024 * KB
	GB            = 1024 * MB
)

// Kilobits returns the size expressed in kilobits (1000 bits), the unit the
// paper's Table 2 reports socket-buffer lengths in.
func (d DataSize) Kilobits() float64 { return float64(d) * 8 / 1000 }

// String formats the size with an adaptive unit suffix.
func (d DataSize) String() string {
	switch {
	case d >= GB:
		return trimFloat(float64(d)/float64(GB)) + "GB"
	case d >= MB:
		return trimFloat(float64(d)/float64(MB)) + "MB"
	case d >= KB:
		return trimFloat(float64(d)/float64(KB)) + "KB"
	default:
		return strconv.FormatInt(int64(d), 10) + "B"
	}
}

// ParseDataSize parses strings like "256KB", "1MB", "512B".
func ParseDataSize(s string) (DataSize, error) {
	s = strings.TrimSpace(s)
	mult := DataSize(0)
	var num string
	switch {
	case strings.HasSuffix(s, "GB"):
		mult, num = GB, strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "MB"):
		mult, num = MB, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, num = KB, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "B"):
		mult, num = Byte, strings.TrimSuffix(s, "B")
	default:
		return 0, fmt.Errorf("units: data size %q missing unit suffix", s)
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad data size %q: %v", s, err)
	}
	if f < 0 {
		return 0, fmt.Errorf("units: negative data size %q", s)
	}
	return DataSize(f * float64(mult)), nil
}

func trimFloat(f float64) string {
	s := strconv.FormatFloat(f, 'f', 2, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}
