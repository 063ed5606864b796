// Package lru is the one bounded map with least-recently-used eviction
// behind every in-memory cache that must not grow with traffic: the
// fleet router's replicated artifacts and design→route-key memo, and
// the farm's design store.
package lru

import "container/list"

// Cache is a bounded map with least-recently-used eviction. Not safe
// for concurrent use; the owner's mutex guards it.
type Cache[K comparable, V any] struct {
	cap       int
	ll        *list.List // front = most recently used
	items     map[K]*list.Element
	evictions int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries
// (capacity <= 0 means unbounded).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, ll: list.New(), items: map[K]*list.Element{}}
}

// Get returns the value and bumps its recency.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes a key, evicting the least recently used
// entries beyond the cap.
func (c *Cache[K, V]) Put(key K, val V) {
	if e, ok := c.items[key]; ok {
		e.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(e)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	for c.cap > 0 && c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		c.evictions++
	}
}

// Remove drops a key without counting an eviction (no-op when absent).
func (c *Cache[K, V]) Remove(key K) {
	if e, ok := c.items[key]; ok {
		c.ll.Remove(e)
		delete(c.items, key)
	}
}

// Len is the number of resident entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Evictions counts entries pushed out by the cap since New.
func (c *Cache[K, V]) Evictions() int64 { return c.evictions }
