package mutex

import (
	"errors"
	"strings"
	"testing"
)

func TestValidateIDs(t *testing.T) {
	cases := []struct {
		name   string
		ids    []ID
		member ID
		ok     bool
	}{
		{"valid", []ID{1, 2, 3}, 2, true},
		{"valid without member check", []ID{1, 5, 9}, Nil, true},
		{"empty", nil, Nil, false},
		{"zero id", []ID{0, 1}, Nil, false},
		{"negative id", []ID{-1, 1}, Nil, false},
		{"duplicate", []ID{1, 1}, Nil, false},
		{"descending", []ID{2, 1}, Nil, false},
		{"member missing", []ID{1, 2}, 9, false},
	}
	for _, c := range cases {
		err := ValidateIDs(c.ids, c.member)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s: expected error", c.name)
			} else if !errors.Is(err, ErrBadConfig) {
				t.Errorf("%s: error %v does not wrap ErrBadConfig", c.name, err)
			}
		}
	}
}

// TestCheckIDMatchesValidateIDs: CheckID answers as ValidateIDs does,
// on a validated Config (binary search) and on any other (full scan),
// and Validate rejects exactly the lists ValidateIDs rejects.
func TestCheckIDMatchesValidateIDs(t *testing.T) {
	lists := [][]ID{nil, {1}, {1, 2, 3}, {1, 5, 9}, {0, 1}, {-1, 1}, {1, 1}, {2, 1}, {1, 3, 2}}
	for _, ids := range lists {
		var validated Config
		validated.IDs = ids
		verr := validated.Validate()
		if (verr == nil) != (ValidateIDs(ids, Nil) == nil) {
			t.Fatalf("%v: Validate = %v, ValidateIDs disagrees", ids, verr)
		}
		if verr != nil && !errors.Is(verr, ErrBadConfig) {
			t.Fatalf("%v: Validate error %v does not wrap ErrBadConfig", ids, verr)
		}
		for _, id := range []ID{Nil, 1, 2, 3, 4, 5, 9, 10} {
			want := ValidateIDs(ids, id) == nil
			plain := Config{IDs: ids}
			if got := plain.CheckID(id) == nil; got != want {
				t.Errorf("%v: unvalidated CheckID(%d) ok=%v, ValidateIDs ok=%v", ids, id, got, want)
			}
			if got := validated.CheckID(id) == nil; got != want {
				t.Errorf("%v: validated CheckID(%d) ok=%v, ValidateIDs ok=%v", ids, id, got, want)
			}
			copied := validated
			if got := copied.CheckID(id) == nil; got != want {
				t.Errorf("%v: copied CheckID(%d) ok=%v, ValidateIDs ok=%v", ids, id, got, want)
			}
		}
	}
}

// TestCheckIDScansAListValidateNeverSaw: a Config whose IDs were
// replaced or re-sliced after Validate falls back to the full scan, so
// an unsorted list is still rejected although a binary search would
// find the ID in it.
func TestCheckIDScansAListValidateNeverSaw(t *testing.T) {
	cfg := Config{IDs: []ID{1, 2, 3}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.IDs = []ID{1, 3, 2}
	if err := cfg.CheckID(3); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("CheckID(3) on a replaced unsorted list = %v, want ErrBadConfig", err)
	}
	backing := []ID{1, 2, 3, 0}
	cfg = Config{IDs: backing[:3]}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.IDs = backing
	if err := cfg.CheckID(2); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("CheckID(2) on a list grown past the validated one = %v, want ErrBadConfig", err)
	}
}

func TestStorageAddAndString(t *testing.T) {
	a := Storage{Scalars: 3, Bytes: 9}
	b := Storage{Scalars: 1, ArrayEntries: 4, QueueEntries: 2, Bytes: 30}
	sum := a.Add(b)
	if sum.Scalars != 4 || sum.ArrayEntries != 4 || sum.QueueEntries != 2 || sum.Bytes != 39 {
		t.Fatalf("Add = %+v", sum)
	}
	if !strings.Contains(sum.String(), "4 scalars") {
		t.Fatalf("String = %q", sum.String())
	}
}
