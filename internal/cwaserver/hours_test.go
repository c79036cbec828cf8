package cwaserver

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"cwatrace/internal/diagkeys"
	"cwatrace/internal/entime"
	"cwatrace/internal/exposure"
)

// submitAtHour registers and uploads n keys at a specific hour of the
// clock's current day.
func submitAtHour(t *testing.T, b *Backend, clock *entime.SimClock, hour, n int) {
	t.Helper()
	local := clock.Now().In(entime.Berlin)
	day := time.Date(local.Year(), local.Month(), local.Day(), 0, 0, 0, 0, entime.Berlin)
	clock.Set(day.Add(time.Duration(hour)*time.Hour + 10*time.Minute))
	token := b.RegisterTest(ResultPositive, clock.Now().Add(-time.Hour))
	tan, err := b.IssueTAN(token)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SubmitKeys(tan, sampleKeys(t, clock.Now(), n)); err != nil {
		t.Fatal(err)
	}
}

func TestAvailableHours(t *testing.T) {
	clock := entime.NewSimClock(entime.FirstKeysObserved)
	b := newBackend(t, clock)
	day := diagkeys.DayKey(clock.Now())

	if hours := b.AvailableHours(day); len(hours) != 0 {
		t.Fatalf("hours before any submission: %v", hours)
	}
	submitAtHour(t, b, clock, 9, 1)
	submitAtHour(t, b, clock, 14, 2)
	submitAtHour(t, b, clock, 9, 1)
	hours := b.AvailableHours(day)
	if len(hours) != 2 || hours[0] != 9 || hours[1] != 14 {
		t.Fatalf("hours = %v, want [9 14]", hours)
	}
}

func TestExportForHour(t *testing.T) {
	clock := entime.NewSimClock(entime.FirstKeysObserved)
	b := newBackend(t, clock)
	day := diagkeys.DayKey(clock.Now())
	submitAtHour(t, b, clock, 9, 3)
	submitAtHour(t, b, clock, 14, 2)

	data, err := b.ExportForHour(day, 9)
	if err != nil {
		t.Fatal(err)
	}
	export, err := diagkeys.Unmarshal(data, b.Signer())
	if err != nil {
		t.Fatal(err)
	}
	// Hour packages are unpadded: exactly the submitted keys.
	if len(export.Keys) != 3 {
		t.Fatalf("hour 9 keys = %d, want 3 (no padding)", len(export.Keys))
	}
	// The window must cover exactly that hour.
	if export.End != export.Start.Add(6) {
		t.Fatalf("hour window = [%d, %d), want 6 intervals", export.Start, export.End)
	}
}

// TestHourPackageCachedUntilItsHourGrows pins the hour package cache: a
// repeat answers the same bytes from the cache, keys submitted in another
// hour leave it standing, keys submitted in its own hour rebuild it, and
// the rebuilt package is the one a fresh backend builds from the same
// submissions.
func TestHourPackageCachedUntilItsHourGrows(t *testing.T) {
	clock := entime.NewSimClock(entime.FirstKeysObserved)
	b := newBackend(t, clock)
	day := diagkeys.DayKey(clock.Now())
	submitAtHour(t, b, clock, 9, 3)
	first, err := b.ExportForHour(day, 9)
	if err != nil {
		t.Fatal(err)
	}
	submitAtHour(t, b, clock, 14, 2)
	if again, err := b.ExportForHour(day, 9); err != nil || &again[0] != &first[0] {
		t.Fatalf("hour 9 after a submission at hour 14: err %v, or not the cached package", err)
	}
	submitAtHour(t, b, clock, 9, 1)
	grown, err := b.ExportForHour(day, 9)
	if err != nil {
		t.Fatal(err)
	}
	export, err := diagkeys.Unmarshal(grown, b.Signer())
	if err != nil || len(export.Keys) != 4 {
		t.Fatalf("hour 9 after a fourth key: err %v, or not 4 keys", err)
	}
	// The hour's keys are part of the state, the submission order is not:
	// a fresh backend holding the same hour-9 keys answers the same bytes.
	fresh := newBackend(t, entime.NewSimClock(entime.FirstKeysObserved))
	fresh.keysByHour[day] = map[int][]exposure.DiagnosisKey{9: b.keysByHour[day][9]}
	if want, err := fresh.ExportForHour(day, 9); err != nil || !bytes.Equal(grown, want) {
		t.Fatalf("the rebuilt hour package differs from a fresh build: err %v", err)
	}
}

// TestConcurrentHourExports submits keys and downloads the hour package
// from parallel goroutines, so the cache is filled and dropped under
// contention (run with -race); afterwards the package holds every key
// submitted in the hour.
func TestConcurrentHourExports(t *testing.T) {
	clock := entime.NewSimClock(entime.FirstKeysObserved.Add(12 * time.Hour))
	b := newBackend(t, clock)
	day, hour := diagkeys.DayKey(clock.Now()), clock.Now().In(entime.Berlin).Hour()
	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tan, err := b.IssueTAN(b.RegisterTest(ResultPositive, clock.Now().Add(-time.Hour)))
				if err == nil {
					err = b.SubmitKeys(tan, sampleKeys(t, clock.Now(), 1))
				}
				if err == nil {
					_, err = b.ExportForHour(day, hour)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	data, err := b.ExportForHour(day, hour)
	if err != nil {
		t.Fatal(err)
	}
	export, err := diagkeys.Unmarshal(data, b.Signer())
	if err != nil || len(export.Keys) != workers*perWorker {
		t.Fatalf("hour package after the uploads: err %v, or not %d keys", err, workers*perWorker)
	}
}

func TestExportForHourErrors(t *testing.T) {
	clock := entime.NewSimClock(entime.FirstKeysObserved)
	b := newBackend(t, clock)
	if _, err := b.ExportForHour("2020-06-23", 9); !errors.Is(err, ErrNoSuchDay) {
		t.Fatalf("unknown day: %v", err)
	}
	submitAtHour(t, b, clock, 9, 1)
	if _, err := b.ExportForHour("2020-06-23", 10); !errors.Is(err, ErrNoSuchHour) {
		t.Fatalf("unknown hour: %v", err)
	}
}

func TestDayPackageAggregatesHours(t *testing.T) {
	clock := entime.NewSimClock(entime.FirstKeysObserved)
	b := newBackend(t, clock)
	day := diagkeys.DayKey(clock.Now())
	submitAtHour(t, b, clock, 9, 3)
	submitAtHour(t, b, clock, 14, 2)
	if got := b.KeyCount(day); got != 5 {
		t.Fatalf("KeyCount = %d, want 5", got)
	}
	data, err := b.ExportForDay(day)
	if err != nil {
		t.Fatal(err)
	}
	export, err := diagkeys.Unmarshal(data, b.Signer())
	if err != nil {
		t.Fatal(err)
	}
	if len(export.Keys) < diagkeys.MinKeysPerExport {
		t.Fatalf("day package must stay padded: %d keys", len(export.Keys))
	}
}

func TestIndexIncludesCurrentDayHours(t *testing.T) {
	clock := entime.NewSimClock(entime.FirstKeysObserved)
	b := newBackend(t, clock)
	submitAtHour(t, b, clock, 9, 1)
	idx, err := b.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Hours) != 1 || idx.Hours[0] != 9 {
		t.Fatalf("index hours = %v, want [9]", idx.Hours)
	}
}

func TestHTTPHourEndpoint(t *testing.T) {
	b, clock, srv := newServer(t)
	day := diagkeys.DayKey(clock.Now())
	submitAtHour(t, b, clock, 9, 2)

	resp, err := http.Get(srv.URL + PathDatePrefix + "DE/date/" + day + "/hour/9")
	if err != nil {
		t.Fatal(err)
	}
	pkg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hour fetch status %d", resp.StatusCode)
	}
	export, err := diagkeys.Unmarshal(pkg, b.Signer())
	if err != nil {
		t.Fatal(err)
	}
	if len(export.Keys) != 2 {
		t.Fatalf("hour package keys = %d", len(export.Keys))
	}

	// Missing hour -> 404, bad hour -> 400.
	resp, err = http.Get(srv.URL + PathDatePrefix + "DE/date/" + day + "/hour/3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing hour status %d", resp.StatusCode)
	}
	for _, bad := range []string{"x", "-1", "24"} {
		resp, err = http.Get(srv.URL + PathDatePrefix + "DE/date/" + day + "/hour/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad hour %q status %d", bad, resp.StatusCode)
		}
	}
}
