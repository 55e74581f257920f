package strategy

import (
	"errors"
	"strings"
	"testing"
)

// TestNamesLists pins that the shipped strategies self-register, sorted.
func TestNamesLists(t *testing.T) {
	names := Names()
	has := map[string]bool{}
	for _, n := range names {
		has[n] = true
	}
	if !has["s1"] || !has["s2"] || !has["s3"] {
		t.Fatalf("Names() = %v, want s1, s2 and s3 registered", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() = %v not sorted", names)
		}
	}
}

// TestNewSpecs pins the spec grammar: a bare name builds the default
// variant; "name:arg" passes the argument to the factory.
func TestNewSpecs(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"s1", "S1"},
		{"s2", "S2"},
		{"s3", "S3(limit=2)"},
		{"s3:5", "S3(limit=5)"},
	} {
		s, err := New(tc.spec)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.spec, err)
		}
		if s.Name() != tc.want {
			t.Fatalf("New(%q).Name() = %q, want %q", tc.spec, s.Name(), tc.want)
		}
	}
}

// TestNewUnknown pins the lookup error contract: ErrUnknownStrategy wrapped
// with the requested name and the registered alternatives.
func TestNewUnknown(t *testing.T) {
	_, err := New("s9")
	if !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("error %v does not wrap ErrUnknownStrategy", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"s9"`) || !strings.Contains(msg, "s1") {
		t.Fatalf("error %q must name the requested strategy and the registered ones", msg)
	}
}

// TestNewBadArgs pins factory argument validation.
func TestNewBadArgs(t *testing.T) {
	for _, spec := range []string{"s1:2", "s2:x", "s3:0", "s3:-1", "s3:zero"} {
		if _, err := New(spec); err == nil {
			t.Fatalf("New(%q) accepted an invalid argument", spec)
		}
	}
}

// TestRegisterDuplicatePanics pins registry hygiene: re-registering a
// taken name panics with the conflicting name.
func TestRegisterDuplicatePanics(t *testing.T) {
	nop := func(string) (Strategy, error) { return nil, errors.New("unused") }
	Register("dup-probe", nop)
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("duplicate registration did not panic")
		}
		if msg, ok := rec.(string); !ok || !strings.Contains(msg, "dup-probe") {
			t.Fatalf("panic %v does not name the conflicting strategy", rec)
		}
	}()
	Register("dup-probe", nop)
}

// TestRegisterRejectsBadNames pins the empty-name, nil-factory, and
// spec-separator guards.
func TestRegisterRejectsBadNames(t *testing.T) {
	nop := func(string) (Strategy, error) { return nil, errors.New("unused") }
	for _, tc := range []struct {
		name string
		f    Factory
	}{
		{"", nop},
		{"nil-probe", nil},
		{"has:colon", nop},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register(%q) did not panic", tc.name)
				}
			}()
			Register(tc.name, tc.f)
		}()
	}
}
