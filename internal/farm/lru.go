package farm

import (
	"container/list"
)

// lruCache is a bounded most-recently-used map keyed by canonical job hash.
// It is not goroutine-safe; the Farm guards it with its mutex.
type lruCache[V any] struct {
	cap int
	ll  *list.List
	m   map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lruCache[V] {
	return &lruCache[V]{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *lruCache[V]) get(key string) (V, bool) {
	el, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add inserts or refreshes key and reports whether an older entry was
// evicted to stay within capacity.
func (c *lruCache[V]) add(key string, val V) bool {
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return false
	}
	c.m[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	if c.ll.Len() <= c.cap {
		return false
	}
	c.remove(c.ll.Back().Value.(*lruEntry[V]).key)
	return true
}

// remove drops key if present.
func (c *lruCache[V]) remove(key string) {
	if el, ok := c.m[key]; ok {
		c.ll.Remove(el)
		delete(c.m, key)
	}
}

func (c *lruCache[V]) len() int { return c.ll.Len() }
