package store_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"cwatrace/internal/api"
	"cwatrace/internal/netflow"
	"cwatrace/internal/store"
	"cwatrace/internal/streaming"
)

// get serves one request to a fresh API server over st and returns the
// status and body.
func get(t *testing.T, st *store.Store, target string) (int, []byte) {
	t.Helper()
	srv, err := api.New(api.Config{History: st})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	return w.Code, w.Body.Bytes()
}

// TestSnapshotIndependentOfCheckpointPlacement feeds the same appends —
// some of them days behind the newest at a 48-hour window, one before the
// origin — into stores that checkpoint after every append, every seventh,
// every thousandth or never, at MaxFrames 4 so that compaction regroups
// the frames, then closes and reopens each. /api/v1/snapshot answers the
// same JSON, late count included, and the same ?format=state bytes in
// every store, before the restart and after it.
func TestSnapshotIndependentOfCheckpointPlacement(t *testing.T) {
	var appends [][]netflow.Record
	for i := 0; i < 40; i++ {
		day := i / 4
		batch := []netflow.Record{store.KeptRecord(day*24+i%4*5, i%9, 100+uint64(i)), store.DroppedRecord(day*24, i)}
		if i%5 == 4 && day >= 3 {
			batch = append(batch, store.KeptRecord((day-3)*24+7, 300+i, 50)) // three days behind
		}
		appends = append(appends, batch)
	}
	appends[17] = append(appends[17], store.KeptRecord(-2, 1, 70)) // before the origin: late

	var want []byte
	for _, every := range []int{1, 7, 1000, 0} {
		dir := t.TempDir()
		opts := store.Options{Analytics: streaming.Config{WindowHours: 48, TopK: 5}, MaxFrames: 4, Sync: store.SyncNever}
		st, err := store.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, batch := range appends {
			if err := st.Append(batch); err != nil {
				t.Fatal(err)
			}
			if every > 0 && (i+1)%every == 0 {
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, reopen := range []bool{false, true} {
			if reopen {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if st, err = store.Open(dir, opts); err != nil {
					t.Fatal(err)
				}
			}
			code, body := get(t, st, "/api/v1/snapshot")
			scode, state := get(t, st, "/api/v1/snapshot?format=state")
			if code != http.StatusOK || scode != http.StatusOK {
				t.Fatalf("checkpoint every %d, reopened %t: status %d and %d", every, reopen, code, scode)
			}
			var snap struct{ Late uint64 }
			if err := json.Unmarshal(body, &snap); err != nil || snap.Late != 1 {
				t.Fatalf("checkpoint every %d, reopened %t: late %d (err %v), want the one record before the origin", every, reopen, snap.Late, err)
			}
			got := append(append(body, 0), state...)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint every %d, reopened %t: the snapshot answers\n%s\nwhere the first store answered\n%s", every, reopen, body, want)
			}
		}
		st.Close()
	}
}

// TestSnapshotReadErrorIsAnError empties the frame cache and then damages
// a registered frame, by removing it or by flipping one of its bytes:
// /api/v1/snapshot answers the v1 error envelope with a 5xx, as JSON and
// as ?format=state, and never a body without that frame's counts.
func TestSnapshotReadErrorIsAnError(t *testing.T) {
	for _, damage := range []string{"remove", "corrupt"} {
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{Analytics: streaming.Config{WindowHours: 48, TopK: 5}, Sync: store.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for day := 0; day < 3; day++ {
			if err := st.Append([]netflow.Record{store.KeptRecord(day*24+3, day, 500)}); err != nil {
				t.Fatal(err)
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
		if err != nil || len(files) != 3 {
			t.Fatalf("checkpoint files %v (err %v), want 3", files, err)
		}
		st.EmptyFrameCache()
		if damage == "remove" {
			err = os.Remove(files[1])
		} else {
			var data []byte
			if data, err = os.ReadFile(files[1]); err == nil {
				data[len(data)/2] ^= 0x10
				err = os.WriteFile(files[1], data, 0o644)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []string{"/api/v1/snapshot", "/api/v1/snapshot?format=state"} {
			code, body := get(t, st, target)
			var envelope struct {
				Error struct{ Code, Message string }
			}
			if code < 500 || json.Unmarshal(body, &envelope) != nil || envelope.Error.Code == "" {
				t.Fatalf("%s after %s: status %d, body %.200q: want a 5xx v1 error", target, damage, code, body)
			}
		}
		if snap := st.Snapshot(); snap != nil {
			t.Fatalf("%s: Snapshot renders %d kept records over a frame it cannot read", damage, snap.Census.Kept)
		}
		st.Close()
	}
}
