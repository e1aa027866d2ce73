package router

import (
	"math/rand"
	"slices"
	"testing"
)

// testQueue returns a queue of capacity c placed at offset 3 of a store
// with guard slots on both sides, so a test also sees any write that
// strays outside the queue's ring.
func testQueue(c int) (*queue, []int32) {
	store := make([]int32, c+6)
	for i := range store {
		store[i] = -7
	}
	return &queue{off: 3, cap: uint16(c)}, store
}

func queueContents(t *testing.T, q *queue, store []int32) []int32 {
	t.Helper()
	out := make([]int32, 0, q.n)
	for i := 0; i < int(q.n); i++ {
		out = append(out, q.at(store, i))
	}
	end := int(q.off) + int(q.cap)
	for i, v := range store {
		if (i < int(q.off) || i >= end) && v != -7 {
			t.Fatalf("store slot %d outside the ring [%d, %d) was written: %d", i, q.off, end, v)
		}
	}
	return out
}

func TestQueueFIFOOrder(t *testing.T) {
	q, store := testQueue(4)
	for i := int32(1); i <= 4; i++ {
		q.push(store, i)
	}
	if q.n != q.cap {
		t.Fatal("queue should be full")
	}
	q.removeAt(store, 0)
	q.push(store, 5)
	if got, want := queueContents(t, q, store), []int32{2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("contents = %v, want %v", got, want)
	}
}

func TestQueueMidRemovalPreservesOrder(t *testing.T) {
	q, store := testQueue(8)
	// Wrap the ring first so removal crosses the buffer seam.
	for i := int32(0); i < 6; i++ {
		q.push(store, i)
	}
	q.removeAt(store, 0)
	q.removeAt(store, 0)
	for i := int32(6); i < 10; i++ {
		q.push(store, i)
	}
	// Contents: 2 3 4 5 6 7 8 9, physically wrapped.
	q.removeAt(store, 3) // drop 5
	if got, want := queueContents(t, q, store), []int32{2, 3, 4, 6, 7, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("contents = %v, want %v", got, want)
	}
}

func TestQueueIndex(t *testing.T) {
	q, store := testQueue(4)
	q.push(store, 10)
	q.push(store, 20)
	q.push(store, 30)
	if got := q.index(store, 20); got != 1 {
		t.Fatalf("index(20) = %d, want 1", got)
	}
	q.removeAt(store, q.index(store, 20))
	if got, miss := q.index(store, 30), q.index(store, 99); got != 1 || miss != -1 {
		t.Fatalf("index(30), index(99) = %d, %d after removal, want 1, -1", got, miss)
	}
	if got, want := queueContents(t, q, store), []int32{10, 30}; !slices.Equal(got, want) {
		t.Fatalf("contents = %v, want %v", got, want)
	}
}

func TestQueuePushFullPanics(t *testing.T) {
	q, store := testQueue(1)
	q.push(store, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("push on full queue did not panic")
		}
	}()
	q.push(store, 2)
}

// TestQueueDifferentialSlice mirrors the queue against a plain slice over
// random push/remove sequences, across wraps.
func TestQueueDifferentialSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	q, store := testQueue(16)
	var ref []int32
	next := int32(0)
	for step := 0; step < 20000; step++ {
		if int(q.n) != len(ref) {
			t.Fatalf("step %d: len %d vs ref %d", step, q.n, len(ref))
		}
		if len(ref) < 16 && (len(ref) == 0 || rng.Intn(2) == 0) {
			q.push(store, next)
			ref = append(ref, next)
			next++
		} else {
			i := rng.Intn(len(ref))
			q.removeAt(store, i)
			ref = append(ref[:i], ref[i+1:]...)
		}
		if got := queueContents(t, q, store); !slices.Equal(got, ref) {
			t.Fatalf("step %d: queue %v, ref %v", step, got, ref)
		}
	}
}
