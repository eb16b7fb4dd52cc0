package server

import (
	"encoding/json"
	"testing"
)

// FuzzJobRequest drives arbitrary bytes through the admission path a
// submission takes: JSON -> JobRequest -> Job -> Key. Nothing may panic,
// and every accepted request must lie within the admission limits.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"workload": "square", "scale": 0.1, "protocol": "cpelide"}`,
		`{"streams": [{"workload": "bfs", "chiplets": [0, 1]}, {"workload": "bfs", "chiplets": [2, 3], "rename": "#2"}]}`,
		`{"workload": "btree", "chiplets": 8, "iters": 3, "protocol": "hmg", "dir_entries": 4096, "dir_lines_per_entry": 4}`,
		`{"workload": "square", "faults": "drop=0.1,parity=0.01", "fault_seed": 7}`,
		`{"workload": "square", "chiplets": 1000}`,
		`{"workload": "square", "workload2": 1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var req JobRequest
		if json.Unmarshal(b, &req) != nil {
			return
		}
		job, err := req.Job()
		if err != nil {
			return
		}
		if req.Chiplets < 0 || req.Chiplets > MaxChiplets || req.Scale > MaxScale || req.Iters > MaxIters ||
			len(req.Streams) > MaxStreams || req.TableEntries > MaxTableEntries ||
			req.DirEntries > MaxDirEntries || req.DirLinesPerEntry > MaxDirLinesPerEntry {
			t.Fatalf("request beyond the admission limits accepted: %+v", req)
		}
		if key, err := job.Key(); err == nil && len(key) != 64 {
			t.Fatalf("key %q is not a content hash", key)
		}
	})
}
