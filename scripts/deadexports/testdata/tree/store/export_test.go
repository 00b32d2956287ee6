package store

// BackendOf exports a cache's backend to the external tests: the
// export_test.go idiom, which the gate must type-check them against.
func BackendOf(c *Cache) Backend { return c.be }
