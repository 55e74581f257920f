package strategy

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrUnknownStrategy reports a registry lookup for a strategy name nothing
// registered under. Lookup errors wrap it together with the requested
// name.
var ErrUnknownStrategy = errors.New("unknown strategy")

// Factory builds a strategy from the optional argument following the
// registered name in a spec ("s3:2" passes "2"); a spec with no colon
// passes "".
type Factory func(arg string) (Strategy, error)

var registry = struct {
	sync.Mutex
	factories map[string]Factory
}{factories: make(map[string]Factory)}

// Register adds a named strategy factory. Registration happens in init
// functions, so a duplicate name is a programming error and panics with
// the conflicting name.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("strategy: Register with empty name or nil factory")
	}
	if strings.Contains(name, ":") {
		panic(fmt.Sprintf("strategy: name %q contains the spec separator ':'", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[name]; dup {
		panic(fmt.Sprintf("strategy: %q registered twice", name))
	}
	registry.factories[name] = f
}

// New builds a strategy from its spec: a registered name, optionally
// followed by ":" and a factory argument ("s1", "s3:2"). An unregistered
// name returns an error wrapping ErrUnknownStrategy with the requested name
// and the registered alternatives.
func New(spec string) (Strategy, error) {
	name, arg := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, arg = spec[:i], spec[i+1:]
	}
	registry.Lock()
	f := registry.factories[name]
	registry.Unlock()
	if f == nil {
		return nil, fmt.Errorf("strategy: %w: strategy %q (registered: %v)",
			ErrUnknownStrategy, name, Names())
	}
	s, err := f(arg)
	if err != nil {
		return nil, fmt.Errorf("strategy: %q: %w", spec, err)
	}
	return s, nil
}

// Names lists the registered strategy names, sorted.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	names := make([]string, 0, len(registry.factories))
	for name := range registry.factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func noArg(name string, build func() Strategy) Factory {
	return func(arg string) (Strategy, error) {
		if arg != "" {
			return nil, fmt.Errorf("%s takes no argument", name)
		}
		return build(), nil
	}
}

func init() {
	Register("s1", noArg("s1", func() Strategy { return NewS1() }))
	Register("s2", noArg("s2", func() Strategy { return NewS2() }))
	// s3's argument is the per-block trial limit; the default mirrors the
	// paper's "more than one trial" guidance without chasing false
	// positives forever.
	Register("s3", func(arg string) (Strategy, error) {
		limit := 2
		if arg != "" {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("s3 limit must be a positive integer, got %q", arg)
			}
			limit = n
		}
		return NewS3(limit), nil
	})
	// s4's argument is the uncertainty band half-width around the decision
	// threshold; empty selects DefaultS4Margin.
	Register("s4", func(arg string) (Strategy, error) {
		margin := 0.0
		if arg != "" {
			m, err := strconv.ParseFloat(arg, 64)
			if err != nil || m <= 0 || m >= 1 {
				return nil, fmt.Errorf("s4 margin must be a float in (0, 1), got %q", arg)
			}
			margin = m
		}
		return NewS4(margin), nil
	})
}
