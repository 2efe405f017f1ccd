package fault

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// fuzzGroups is the group count of the machine FuzzFaultTrace checks
// traces against. It is fixed, as the engine sizes its machine from M/Unit
// and never from the trace: a trace naming a huge group must be rejected,
// not make the checks allocate per named group.
const fuzzGroups = 1024

// FuzzFaultTrace feeds arbitrary text through the scripted-trace parser.
// Accepted traces must survive a Write/Parse round trip unchanged, pass
// Validate when every named group fits the fuzz machine and fail it with
// ErrGroupOutOfRange otherwise, and keep Lint/DownWindows panic-free on
// hostile group sets.
func FuzzFaultTrace(f *testing.F) {
	f.Add("100 fail 0,3\n250 repair 3\n")
	f.Add("# comment\n\n0 fail 0\n0 repair 0\n")
	f.Add("10 explode 1\n")
	f.Add("9223372036854775807 fail 1\n")
	f.Add("5 fail 0,0,0\n")
	f.Add("922337203 fail 18076854775\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		fits := true
		for _, e := range tr.Events {
			for _, g := range e.Groups {
				fits = fits && g < fuzzGroups
			}
		}
		err = tr.Validate(fuzzGroups)
		if fits && err != nil {
			t.Fatalf("parsed trace fails Validate(%d): %v\ninput: %q", fuzzGroups, err, in)
		}
		if !fits && !errors.Is(err, ErrGroupOutOfRange) {
			t.Fatalf("trace naming a group past %d: Validate gives %v, want ErrGroupOutOfRange\ninput: %q",
				fuzzGroups, err, in)
		}
		_ = tr.Lint(fuzzGroups)
		_ = tr.DownWindows(fuzzGroups, 1<<40)

		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write: %v", err)
		}
		back, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-Parse of written trace: %v\nwritten: %q", err, buf.String())
		}
		if len(back.Events) != len(tr.Events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(tr.Events), len(back.Events))
		}
		for i := range back.Events {
			a, b := tr.Events[i], back.Events[i]
			if a.Time != b.Time || a.Kind != b.Kind || len(a.Groups) != len(b.Groups) {
				t.Fatalf("event %d changed: %+v -> %+v", i, a, b)
			}
			for k := range a.Groups {
				if a.Groups[k] != b.Groups[k] {
					t.Fatalf("event %d group %d changed: %d -> %d", i, k, a.Groups[k], b.Groups[k])
				}
			}
		}
	})
}
