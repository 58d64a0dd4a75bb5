package fem2_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	fem2 "repro"
)

// TestLoadRefusesADofOutsideTheModel: a load names a dof of the model as
// it stands, as an element names its nodes and `fix dof` its dof.  One
// outside the model is refused with the text a solve would give, creates
// no load set and changes nothing — locally and over the wire alike.
func TestLoadRefusesADofOutsideTheModel(t *testing.T) {
	cases := []struct {
		setup []string
		model string
		dofs  []int
		ndof  int
	}{
		{[]string{"define structure m", "node m 0 0", "node m 1 0"}, "m", []int{-3, 4, 7}, 4},
		{[]string{"generate grid g 2 1 2 1 clamp-left"}, "g", []int{-1, 12}, 12},
	}
	sys, err := fem2.New()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	_, srv, addr, _ := startServer(t, fem2.ServerConfig{})
	defer srv.Shutdown(context.Background())
	cl, err := fem2.Dial(addr, "eng")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	ways := []struct {
		name string
		exec func(line string) (string, error)
	}{
		{"local", sys.Session("eng").Execute},
		{"wire", func(line string) (string, error) { return cl.Execute(ctx, line) }},
	}

	var transcripts []string
	for _, way := range ways {
		var out strings.Builder
		for _, c := range cases {
			for _, line := range c.setup {
				if _, err := way.exec(line); err != nil {
					t.Fatalf("%s: %s: %v", way.name, line, err)
				}
			}
			display := "display model " + c.model
			before, err := way.exec(display)
			if err != nil {
				t.Fatal(err)
			}
			for _, dof := range c.dofs {
				line := fmt.Sprintf("load %s tip %d 5", c.model, dof)
				res, err := way.exec(line)
				want := fmt.Sprintf("fem: invalid model: load on dof %d of %d", dof, c.ndof)
				if err == nil || err.Error() != want {
					t.Errorf("%s: %s = %q, %v; want refused with %q", way.name, line, res, err, want)
				}
				fmt.Fprintf(&out, "%s -> %q %v\n", line, res, err)
			}
			if after, _ := way.exec(display); after != before {
				t.Errorf("%s: a refused load changed %s: %q, then %q", way.name, c.model, before, after)
			}
			if _, err := way.exec("solve " + c.model + " tip"); !errors.Is(err, fem2.ErrNotFound) {
				t.Errorf("%s: solve %s tip after refused loads = %v, want no such load set", way.name, c.model, err)
			}
		}
		transcripts = append(transcripts, out.String())
	}
	if transcripts[0] != transcripts[1] {
		t.Errorf("local and wire differ:\n%s\nvs\n%s", transcripts[0], transcripts[1])
	}
}
