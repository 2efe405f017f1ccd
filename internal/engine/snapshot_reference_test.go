package engine

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file retains DecodeSnapshot as first written — one encoding/json
// pass over the stream into Snapshot — as the behavioural oracle for the
// cursor decoder in snapshot_decode.go: FuzzDecodeSnapshot asserts that
// DecodeSnapshot fails exactly when the oracle does and otherwise returns
// a DeepEqual snapshot, and BenchmarkSnapshotCodec measures one against
// the other.

// referenceDecodeSnapshot reads a snapshot the way DecodeSnapshot did
// before it decoded the hot arrays itself.
func referenceDecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var sn Snapshot
	if err := json.NewDecoder(r).Decode(&sn); err != nil {
		return nil, fmt.Errorf("engine: decoding snapshot: %v", err)
	}
	if sn.Version != SnapshotVersion {
		return nil, fmt.Errorf("engine: snapshot version %d, want %d", sn.Version, SnapshotVersion)
	}
	return &sn, nil
}
