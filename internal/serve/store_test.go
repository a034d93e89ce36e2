package serve

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfprism/internal/ingest"
)

// tr builds a minimal TagResult for store tests.
func tr(epc string, seq int) ingest.TagResult {
	return ingest.TagResult{EPC: epc, Seq: seq, Reason: "coverage"}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newTestStore builds a store and closes it with the test.
func newTestStore(t *testing.T, cfg StoreConfig) *Store {
	t.Helper()
	st := NewStore(cfg)
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// emitVisible publishes one result and waits for it to land in a
// snapshot, returning the tag's new epoch.
func emitVisible(t *testing.T, st *Store, r ingest.TagResult) uint64 {
	t.Helper()
	before := st.Published()
	if err := st.Emit(r); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, fmt.Sprintf("%s/%d to swap in", r.EPC, r.Seq), func() bool {
		return st.Published() > before
	})
	return st.Snapshot().TagEpoch(r.EPC)
}

func TestStoreSwapVisibility(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	if _, _, ok := st.Snapshot().Latest("A"); ok {
		t.Fatal("empty store claims a result")
	}
	if st.Epoch() != 0 {
		t.Fatalf("empty store epoch = %d, want 0", st.Epoch())
	}

	emitVisible(t, st, tr("B", 1))
	emitVisible(t, st, tr("A", 1))

	res, _, ok := st.Snapshot().Latest("A")
	if !ok || res.Seq != 1 || res.EPC != "A" {
		t.Fatalf("Latest(A) = %+v, %v", res, ok)
	}
	if got := st.Snapshot().EPCs(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("EPCs = %v, want sorted [A B]", got)
	}
	if st.Epoch() < 1 {
		t.Fatalf("epoch did not advance: %d", st.Epoch())
	}
	if st.Swaps() < 1 || st.Published() != 2 {
		t.Fatalf("swaps=%d published=%d", st.Swaps(), st.Published())
	}
}

func TestStoreHistoryTrim(t *testing.T) {
	st := newTestStore(t, StoreConfig{History: 3})
	for i := 1; i <= 5; i++ {
		emitVisible(t, st, tr("A", i))
	}
	hist := st.Snapshot().History("A")
	if len(hist) != 3 {
		t.Fatalf("history length = %d, want 3", len(hist))
	}
	for i, want := range []int{3, 4, 5} {
		if hist[i].Seq != want {
			t.Fatalf("history[%d].Seq = %d, want %d (oldest first)", i, hist[i].Seq, want)
		}
	}
}

// TestSnapshotImmutable is the copy-on-write contract: a held snapshot
// never changes, no matter what the store publishes afterwards.
func TestSnapshotImmutable(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	emitVisible(t, st, tr("A", 1))
	old := st.Snapshot()
	oldEpoch := old.Epoch()

	emitVisible(t, st, tr("A", 2))
	emitVisible(t, st, tr("B", 1))

	if old.Epoch() != oldEpoch {
		t.Fatal("held snapshot's epoch moved")
	}
	if res, _, ok := old.Latest("A"); !ok || res.Seq != 1 {
		t.Fatalf("held snapshot Latest(A) = %+v, %v; want seq 1", res, ok)
	}
	if old.Len() != 1 {
		t.Fatalf("held snapshot Len = %d, want 1", old.Len())
	}
	if res, _, ok := st.Snapshot().Latest("A"); !ok || res.Seq != 2 {
		t.Fatalf("current snapshot Latest(A) = %+v, %v; want seq 2", res, ok)
	}
}

// TestSnapshotSinceWindow pins the catch-up/resync boundary: clients
// inside the retained window get batches, clients behind it get
// ok=false (resync), clients at the head get nothing.
func TestSnapshotSinceWindow(t *testing.T) {
	st := newTestStore(t, StoreConfig{RecentEpochs: 2})
	for i := 1; i <= 4; i++ {
		emitVisible(t, st, tr("A", i))
	}
	snap := st.Snapshot()
	head := snap.Epoch()
	if head < 4 {
		t.Fatalf("expected at least 4 epochs, got %d", head)
	}

	if batches, ok := snap.Since(head); !ok || len(batches) != 0 {
		t.Fatalf("Since(head) = %v, %v; want empty, true", batches, ok)
	}
	batches, ok := snap.Since(head - 1)
	if !ok || len(batches) != 1 || batches[0].First != head {
		t.Fatalf("Since(head-1) = %v, %v; want the head batch", batches, ok)
	}
	if batches, ok := snap.Since(head - 2); !ok || len(batches) != 2 {
		t.Fatalf("Since(head-2) = %v, %v; want both retained batches", batches, ok)
	}
	if _, ok := snap.Since(head - 3); ok {
		t.Fatal("Since behind the retained window must demand a resync")
	}
	if _, ok := snap.Since(0); ok {
		t.Fatal("Since(0) behind the window must demand a resync")
	}
}

// TestSwapPerResultEpochs: every result of one swap gets its own epoch,
// the snapshot's epoch is its newest result's, each tag keeps its own
// result's epoch, and Since(k) answers exactly the results past k —
// also from inside a batch.
func TestSwapPerResultEpochs(t *testing.T) {
	st := newStore(StoreConfig{})
	defer st.Close()
	batch := []ingest.TagResult{tr("A", 1), tr("B", 1), tr("A", 2)}
	for _, r := range batch {
		if err := st.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	st.swap()
	snap := st.Snapshot()
	if snap.Epoch() != 3 || st.Swaps() != 1 {
		t.Fatalf("epoch %d after %d swaps, want 3 after 1", snap.Epoch(), st.Swaps())
	}
	if a, b := snap.TagEpoch("A"), snap.TagEpoch("B"); a != 3 || b != 2 {
		t.Fatalf("tag epochs A=%d B=%d, want 3 and 2", a, b)
	}
	for k := uint64(0); k <= 3; k++ {
		batches, ok := snap.Since(k)
		if !ok {
			t.Fatalf("Since(%d) demands a resync inside the window", k)
		}
		var got []string
		for _, b := range batches {
			for i, r := range b.Results {
				got = append(got, fmt.Sprintf("%d:%s/%d", b.First+uint64(i), r.EPC, r.Seq))
			}
		}
		var want []string
		for i := k; i < 3; i++ {
			want = append(want, fmt.Sprintf("%d:%s/%d", i+1, batch[i].EPC, batch[i].Seq))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Since(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestWaitTagImmediate(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	epoch := emitVisible(t, st, tr("A", 1))
	res, got, ok := st.WaitTag(context.Background(), "A", 0, time.Second)
	if !ok || res.Seq != 1 || got != epoch {
		t.Fatalf("WaitTag = %+v, %d, %v; want seq 1 at epoch %d", res, got, ok, epoch)
	}
	changed, _ := st.LongPolls()
	if changed == 0 {
		t.Fatal("changed long-poll not counted")
	}
}

func TestWaitTagWakesOnPublish(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	since := emitVisible(t, st, tr("A", 1))

	type reply struct {
		res   ingest.TagResult
		epoch uint64
		ok    bool
	}
	got := make(chan reply, 1)
	go func() {
		res, epoch, ok := st.WaitTag(context.Background(), "A", since, 5*time.Second)
		got <- reply{res, epoch, ok}
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter park
	if err := st.Emit(tr("A", 2)); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if !r.ok || r.res.Seq != 2 || r.epoch <= since {
			t.Fatalf("woken WaitTag = %+v; want seq 2 past epoch %d", r, since)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitTag did not wake on publish")
	}
}

func TestWaitTagTimeout(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	start := time.Now()
	_, _, ok := st.WaitTag(context.Background(), "ghost", 0, 30*time.Millisecond)
	if ok {
		t.Fatal("WaitTag reported a change for an unknown tag")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout WaitTag took %v", elapsed)
	}
	_, timeouts := st.LongPolls()
	if timeouts == 0 {
		t.Fatal("timeout long-poll not counted")
	}
}

func TestWaitTagCancel(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, _, ok := st.WaitTag(ctx, "ghost", 0, time.Minute); ok {
		t.Fatal("cancelled WaitTag reported a change")
	}
}

// TestStoreCloseFlushesPending: a drain's tail must become visible even
// when no swap runs before Close.
func TestStoreCloseFlushesPending(t *testing.T) {
	st := newStore(StoreConfig{}) // no swap loop: the result stays pending
	if err := st.Emit(tr("A", 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Snapshot().Latest("A"); ok {
		t.Fatal("result visible before any swap")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if res, _, ok := st.Snapshot().Latest("A"); !ok || res.Seq != 1 {
		t.Fatalf("Close did not flush pending results: %+v, %v", res, ok)
	}
	if err := st.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	sub := st.Hub().Subscribe(Filter{}, 1)
	if _, open := <-sub.C; open || sub.Dropped() != DropShutdown {
		t.Fatalf("subscribe after close: open=%v reason=%v, want closed shutdown", open, sub.Dropped())
	}
}

// TestStoreEmitVisibleAtOnce: an idle store publishes each result as
// soon as it is emitted, with no swap interval to wait out — 50
// sequential emit-then-wait rounds take far less than 50 timer ticks.
func TestStoreEmitVisibleAtOnce(t *testing.T) {
	st := NewStore(StoreConfig{})
	t.Cleanup(func() { _ = st.Close() })
	start := time.Now()
	for i := 1; i <= 50; i++ {
		emitVisible(t, st, tr("A", i))
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("50 emit-to-visible rounds took %v, want < 250ms", elapsed)
	}
}

// TestStoreReadPathNoMutexContention is the zero-lock hot-path
// assertion from the acceptance criteria: with mutex profiling at
// fraction 1 and writers hammering Emit under a reader fleet, the
// contention profile must show no snapshot read-path frames — reader
// throughput comes from the atomic pointer load alone. (Emit/swap
// frames are expected: the write path owns the only mutex.)
func TestStoreReadPathNoMutexContention(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	st := newTestStore(t, StoreConfig{RecentEpochs: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = st.Emit(tr(fmt.Sprintf("TAG-%d", (w*37+i)%32), i))
				time.Sleep(50 * time.Microsecond)
			}
		}(w)
	}
	var reads atomic.Int64
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Snapshot()
				snap.Latest("TAG-1")
				snap.History("TAG-2")
				snap.EPCs()
				snap.Since(snap.Epoch())
				reads.Add(1)
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("readers made no progress")
	}

	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	prof := buf.String()
	for _, sym := range []string{
		"(*Store).Snapshot",
		"(*Store).Latest",
		"(*Snapshot).Latest",
		"(*Snapshot).History",
		"(*Snapshot).EPCs",
		"(*Snapshot).Since",
	} {
		if strings.Contains(prof, sym) {
			t.Fatalf("snapshot read path appears in the mutex contention profile (%s):\n%s", sym, prof)
		}
	}
}
