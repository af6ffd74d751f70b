package envflag

import "testing"

func TestBool(t *testing.T) {
	cases := []struct {
		val  string
		want bool
	}{
		{"", false},
		{"0", false},
		{"false", false},
		{"no", false},
		{"1", true},
		{"true", true},
		{"yes", true},
		{"anything", true},
	}
	for _, c := range cases {
		t.Setenv(DisableOptimizer, c.val)
		if got := Bool(DisableOptimizer); got != c.want {
			t.Errorf("Bool(%q=%q) = %v, want %v", DisableOptimizer, c.val, got, c.want)
		}
	}
}

func TestBoolUnset(t *testing.T) {
	if Bool("RECYCLEDB_ENVFLAG_TEST_UNSET") {
		t.Error("unset variable should read false")
	}
}
