package serve

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkStoreEmitToVisible measures the time from Emit until the
// result is in Snapshot(), one result at a time, on a store already
// holding a 1,000-tag population, and reports it in ns/result.
func BenchmarkStoreEmitToVisible(b *testing.B) {
	const tags = 1000
	st := NewStore(StoreConfig{})
	defer st.Close()
	for i := 0; i < tags; i++ {
		_ = st.Emit(tr(fmt.Sprintf("TAG-%04d", i), 0))
	}
	for st.Published() < tags {
		runtime.Gosched()
	}
	epcs := st.Snapshot().EPCs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		want := st.Epoch() + 1
		_ = st.Emit(tr(epcs[i%tags], i+1)) // Store.Emit never fails
		for st.Epoch() < want {
			runtime.Gosched()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/result")
}
