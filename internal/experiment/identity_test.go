package experiment

import "testing"

// TestExecutionPathByteIdentity: experiments must render byte-identical
// tables on every execution path — the batched fast path off, grouping
// off, and both at once on a parallel pool. figure3 gangs a whole sweep,
// table9 varies pageSeed per trial (one execution identity per trial),
// and table6 gangs members with different component attributes. It is
// the in-process check that the experiment layer renders identically
// with the fast path off.
func TestExecutionPathByteIdentity(t *testing.T) {
	for _, id := range []string{"figure3", "table9", "table6"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			fn, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			render := func(noFastPath, noGang bool, parallelism int) string {
				o := parallelOptions(parallelism)
				o.NoFastPath = noFastPath
				o.NoGang = noGang
				tab, err := fn(o)
				if err != nil {
					t.Fatal(err)
				}
				return tab.Render()
			}
			want := render(false, false, 1)
			for _, c := range []struct {
				label              string
				noFastPath, noGang bool
				parallelism        int
			}{
				{"-parallel 8", false, false, 8},
				{"nofastpath", true, false, 1},
				{"nogang", false, true, 1},
				{"nofastpath nogang -parallel 8", true, true, 8},
			} {
				got := render(c.noFastPath, c.noGang, c.parallelism)
				if got != want {
					t.Errorf("%s: %s differs from the default render:\n--- default ---\n%s\n--- %s ---\n%s",
						id, c.label, want, c.label, got)
				}
			}
		})
	}
}
