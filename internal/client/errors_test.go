package client_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/wire"
)

// TestWireErrorTable walks wire.Errors both ways: an error wrapping a
// sentinel travels under that sentinel's code, and the client's error
// for the code matches that sentinel and no other.
func TestWireErrorTable(t *testing.T) {
	if got := wire.CodeOf(errors.New("disk on fire")); got != wire.CodeInternal {
		t.Errorf("an error wrapping no sentinel travels as %q, want %q", got, wire.CodeInternal)
	}
	for _, row := range wire.Errors {
		if got := wire.CodeOf(fmt.Errorf("solve g tip: %w", row.Err)); got != row.Code {
			t.Errorf("%v travels as %q, want %q", row.Err, got, row.Code)
		}
		remote := &client.RemoteError{Code: row.Code, Message: row.Err.Error()}
		for _, other := range wire.Errors {
			if got := errors.Is(remote, other.Err); got != (other.Err == row.Err) {
				t.Errorf("RemoteError{%q} matches %v: %v", row.Code, other.Err, got)
			}
		}
	}
}
