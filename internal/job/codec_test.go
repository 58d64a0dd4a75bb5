package job

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/codec/codectest"
	"repro/internal/command"
	"repro/internal/store"
)

// oracleRecord is the journal encoder the plan codec replaced: command and
// result marshalled into RawMessages first, then json.Marshal of the
// record.  (The envelope encoders have their own oracle in package command.)
func oracleRecord(rec journalRecord) ([]byte, error) {
	if rec.Command != nil {
		raw, err := command.MarshalCommand(rec.Command)
		if err != nil {
			return nil, err
		}
		rec.Cmd, rec.Command = raw, nil
	}
	if rec.Res != nil {
		raw, err := command.MarshalResult(rec.Res)
		if err != nil {
			return nil, err
		}
		rec.Result, rec.Res = raw, nil
	}
	return json.Marshal(rec)
}

// TestCodecMatchesEncodingJSON is the seeded differential for the journal
// record: random field values (see codectest.Fill) around commands and
// results with random fields encode to the oracle's bytes or fail with its
// text, and every record written survives the recovery scan's decode and
// re-encode.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cmds := []command.Command{command.Solve{}, command.SetMaterial{}, command.GenerateGrid{}, command.Stresses{}}
	ress := []command.Result{&command.SolveResult{}, &command.MaterialResult{}, &command.ListResult{}, &command.ModelInfoResult{}}
	failed := 0
	for i := 0; i < 3000; i++ {
		var rec journalRecord
		codectest.Fill(rng, reflect.ValueOf(&rec).Elem())
		if rng.Intn(8) > 0 {
			ptr := reflect.New(reflect.TypeOf(cmds[rng.Intn(len(cmds))]))
			codectest.Fill(rng, ptr.Elem())
			rec.Command = ptr.Elem().Interface().(command.Command)
		}
		if rng.Intn(2) == 0 {
			ptr := reflect.New(reflect.TypeOf(ress[rng.Intn(len(ress))]).Elem())
			codectest.Fill(rng, ptr.Elem())
			rec.Res = ptr.Interface().(command.Result)
		}
		got, gerr := recordPlan.Append(nil, reflect.ValueOf(&rec).Elem())
		want, werr := oracleRecord(rec)
		if gerr != nil || werr != nil {
			failed++
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("%+v: codec error %v, oracle error %v", rec, gerr, werr)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n codec %s\noracle %s", rec, got, want)
		}
		// A record read back (bytes only, as recovery holds it) encodes to
		// bytes that read back as itself.
		var back, twice journalRecord
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("record %s does not decode: %v", got, err)
		}
		again, err := recordPlan.Append(nil, reflect.ValueOf(&back).Elem())
		if err == nil {
			err = json.Unmarshal(again, &twice)
		}
		if err != nil || !reflect.DeepEqual(back, twice) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", back, twice, err)
		}
	}
	if failed < 100 {
		t.Errorf("%d records failed to encode: the generator no longer covers the refusals", failed)
	}
}

// TestJournalKeepsTheJobWhenItsResultCannotBeEncoded: a result JSON cannot
// carry (a NaN) is left out of the record; the record itself — state,
// accounting — is written, as it was when the result was marshalled apart.
func TestJournalKeepsTheJobWhenItsResultCannotBeEncoded(t *testing.T) {
	s, st := attachMem(t, 1)
	defer s.Close()
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return &command.SolveResult{Model: "m", Set: "l", MaxDisp: math.NaN()}, nil
	})
	id, err := s.Submit(context.Background(), "eng", ex, solveOn("m"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitJob(t, s, id); err != nil {
		t.Fatal(err)
	}
	raw, err := st.Get(store.JobKey(int64(id)))
	if err != nil {
		t.Fatal(err)
	}
	var rec journalRecord
	if err := json.Unmarshal(raw, &rec); err != nil || rec.State != Done.String() || rec.Result != nil || len(rec.Cmd) == 0 {
		t.Errorf("journal record = %s (%v); want the done job with its command and no result", raw, err)
	}
}
