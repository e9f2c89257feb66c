package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestLRUCacheEvictionOrder(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := c.Get(key); !ok {
			t.Fatalf("%s should have survived", key)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", st.Hits, st.Misses)
	}
}

func TestLRUCacheUpdateExisting(t *testing.T) {
	c := newLRUCache(4)
	c.Put("k", 1)
	c.Put("k", 2)
	if v, _ := c.Get("k"); v != 2 {
		t.Fatalf("got %v, want 2", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestLRUCacheRemove(t *testing.T) {
	c := newLRUCache(4)
	c.Put("k", 1)
	c.Remove("k")
	c.Remove("absent")
	if _, ok := c.Get("k"); ok {
		t.Fatal("k should have been removed")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d, want 0", c.Len())
	}
}

func TestLRUCacheDisabled(t *testing.T) {
	c := newLRUCache(-1)
	c.Put("k", 1)
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache must always miss")
	}
}

func TestWorkerPoolCancellation(t *testing.T) {
	p := newWorkerPool(1)
	block := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), func() (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Do(ctx, func() (any, error) { return nil, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(block)
	for p.Stats().Completed != 1 {
		time.Sleep(time.Millisecond)
	}
	st := p.Stats()
	if st.Canceled != 1 || st.Workers != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPointKeyCanonical(t *testing.T) {
	if got := pointKey([]float64{1, 2.5}); got != "1,2.5" {
		t.Fatalf("pointKey = %q", got)
	}
	if pointKey([]float64{1, 25}) == pointKey([]float64{12, 5}) {
		t.Fatal("digit-shift collision")
	}
}
