package command

import (
	"math/rand"
	"reflect"
	"testing"
)

// oracleModelOf is the switch ModelOf replaced, as the job package had
// it: the model name a command reads or writes — the scheduler's
// serialization key.  Jobs whose commands touch the same model name run
// one at a time; commands that touch no model ("" key, e.g. list or
// help) never serialize against anything.
func oracleModelOf(cmd Command) string {
	switch c := Value(cmd).(type) {
	case Define:
		return c.Name
	case GenerateGrid:
		return c.Name
	case GenerateTruss:
		return c.Name
	case GenerateBar:
		return c.Name
	case AddNode:
		return c.Model
	case AddBar:
		return c.Model
	case AddCST:
		return c.Model
	case FixNode:
		return c.Model
	case FixDOF:
		return c.Model
	case DefineLoadSet:
		return c.Model
	case AddLoad:
		return c.Model
	case EndLoad:
		return c.Model
	case Solve:
		return c.Model
	case Stresses:
		return c.Model
	case Display:
		return c.Model
	case Store:
		return c.Model
	case Retrieve:
		return c.Name
	case Delete:
		return c.Name
	default:
		return ""
	}
}

// TestModelOfMatchesSwitch: ModelOf, which reads the field a row's
// signature binds to its first <model> or <name>, agrees with the switch
// it replaced over 2 000 commands drawn from every row, in the value and
// the pointer spelling, nested submits included.
func TestModelOfMatchesSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	reached := map[string]int{}
	for _, v := range verbs {
		for range 2000 {
			cmd := drawCommand(rng, v, reached)
			ptr := reflect.New(reflect.TypeOf(cmd))
			ptr.Elem().Set(reflect.ValueOf(cmd))
			for _, c := range []Command{cmd, ptr.Interface().(Command)} {
				if got, want := ModelOf(c), oracleModelOf(c); got != want {
					t.Fatalf("ModelOf(%#v) = %q, the switch's %q", c, got, want)
				}
			}
		}
	}
	if got := ModelOf((*Solve)(nil)); got != "" {
		t.Errorf("ModelOf of a nil *Solve = %q, want \"\"", got)
	}
}
