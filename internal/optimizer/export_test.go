package optimizer

import "testing"

// CheckGolden lets the external test package record and compare goldens
// under the same -update flag.
func CheckGolden(t *testing.T, name, got string) { t.Helper(); checkGolden(t, name, got) }
