// Package store declares the interface db.DB satisfies from another
// package.
package store

// Row is one stored value.
type Row struct{ Val string }

// Backend is what a Cache reads through. Its method mentions Row, so a
// second type-checked instance of this package would have a Backend that
// db.DB does not implement.
type Backend interface {
	Lookup(key string) (Row, bool)
}

// Cache serves keys from a Backend.
type Cache struct{ be Backend }

// New returns a cache over be.
func New(be Backend) *Cache { return &Cache{be: be} }

// Get reads key through the backend.
func (c *Cache) Get(key string) string {
	r, _ := c.be.Lookup(key)
	return r.Val
}
