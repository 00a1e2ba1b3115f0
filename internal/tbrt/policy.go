package tbrt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"traceback/internal/vm"
)

// Policy controls snap triggers and suppression (paper §3.6: "a
// textual policy file that the runtime reads as it starts up").
type Policy struct {
	// Exceptions lists signal names that trigger snaps; "*" matches
	// all. Entries prefixed with "!" are exclusions.
	Exceptions []string
	// API enables the program snap API trigger.
	API bool
	// Hang enables service-detected hang snaps.
	Hang bool
	// Fatal enables a snap at abnormal process termination.
	Fatal bool
	// MaxRepeat is the number of snaps allowed for the same trigger
	// (same exception at the same location) before suppression
	// (paper §3.6.2). 0 means 1.
	MaxRepeat int
}

func (p Policy) withDefaults() Policy {
	if p.Exceptions == nil {
		p.Exceptions = []string{"*"}
	}
	if p.MaxRepeat == 0 {
		p.MaxRepeat = 1
	}
	return p
}

// DefaultPolicy snaps on every exception, API call, hang, and fatal
// exit, with single-shot suppression.
func DefaultPolicy() Policy {
	return Policy{Exceptions: []string{"*"}, API: true, Hang: true, Fatal: true, MaxRepeat: 1}
}

// snapOnException evaluates the exception trigger for a signal name.
func (p Policy) snapOnException(sig int) bool {
	name := vm.SignalName(sig)
	match := false
	for _, e := range p.Exceptions {
		if excl := strings.HasPrefix(e, "!"); excl {
			if strings.EqualFold(e[1:], name) {
				return false
			}
			continue
		}
		if e == "*" || strings.EqualFold(e, name) {
			match = true
		}
	}
	return match
}

// ParsePolicy reads the textual policy format:
//
//	# comment
//	snap exception *          # or a signal name: snap exception SIGSEGV
//	nosnap exception SIGFPE
//	snap api
//	snap hang
//	snap fatal
//	suppress 2                # allow 2 snaps per identical trigger
//
// Unknown directives are errors; a line's fields are whitespace-split.
func ParsePolicy(r io.Reader) (Policy, error) {
	var p Policy
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "snap", "nosnap":
			if len(f) < 2 {
				return p, fmt.Errorf("policy line %d: %q needs a trigger", lineNo, f[0])
			}
			on := f[0] == "snap"
			switch f[1] {
			case "exception":
				if len(f) < 3 {
					return p, fmt.Errorf("policy line %d: exception needs a signal or *", lineNo)
				}
				sig := f[2]
				if !on {
					sig = "!" + sig
				}
				p.Exceptions = append(p.Exceptions, sig)
			case "api":
				p.API = on
			case "hang":
				p.Hang = on
			case "fatal":
				p.Fatal = on
			default:
				return p, fmt.Errorf("policy line %d: unknown trigger %q", lineNo, f[1])
			}
		case "suppress":
			if len(f) < 2 {
				return p, fmt.Errorf("policy line %d: suppress needs a count", lineNo)
			}
			n, err := strconv.Atoi(f[1])
			if err != nil || n < 1 {
				return p, fmt.Errorf("policy line %d: bad suppress count %q", lineNo, f[1])
			}
			p.MaxRepeat = n
		default:
			return p, fmt.Errorf("policy line %d: unknown directive %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return p, err
	}
	return p.withDefaults(), nil
}
