package lru

import "testing"

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // bumps a over b
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived the cap although it was least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was evicted although it was used after b")
	}
	c.Put("c", 30) // refresh in place: no growth, no eviction
	if v, _ := c.Get("c"); v != 30 || c.Len() != 2 || c.Evictions() != 1 {
		t.Errorf("after refresh: c=%d len=%d evictions=%d, want 30, 2, 1", v, c.Len(), c.Evictions())
	}
	c.Remove("a")
	c.Remove("nosuch")
	if _, ok := c.Get("a"); ok || c.Len() != 1 || c.Evictions() != 1 {
		t.Errorf("after Remove: len=%d evictions=%d, want 1 entry and no eviction counted", c.Len(), c.Evictions())
	}
}

func TestCacheUnbounded(t *testing.T) {
	c := New[int, int](0)
	for i := 0; i < 100; i++ {
		c.Put(i, i)
	}
	if c.Len() != 100 || c.Evictions() != 0 {
		t.Errorf("len=%d evictions=%d, want 100 and 0", c.Len(), c.Evictions())
	}
}
