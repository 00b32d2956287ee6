package device

import (
	"strings"

	"mcommerce/internal/mobiledb"
	"mcommerce/internal/simnet"
)

// OfflineFetcher wraps another Fetcher with a mobiledb-backed page cache:
// every successful fetch is stored on the handheld, and when the network
// fails (disconnection, gateway outage, aborted transaction) the last good
// copy is served instead of the error. This is the paper's disconnected-
// operation story at the browser level — the user keeps reading cached
// catalog pages while the bearer is down.
//
// Submits are never cached or replayed: a purchase must reach the origin.
type OfflineFetcher struct {
	Inner Fetcher
	Store *mobiledb.Store

	// StaleServed counts fetches answered from the cache after a network
	// error.
	StaleServed uint64
	// Cached counts successful fetches written to the cache.
	Cached uint64
}

var _ Fetcher = (*OfflineFetcher)(nil)

func cacheKey(origin simnet.Addr, path string) string {
	return "page:" + origin.String() + ":" + path
}

// Fetch tries the wrapped transport first; on success the payload is
// cached (evicting old pages under the store's byte budget), on error a
// cached copy is served when one exists.
func (f *OfflineFetcher) Fetch(origin simnet.Addr, path string, done func([]byte, string, error)) {
	key := cacheKey(origin, path)
	f.Inner.Fetch(origin, path, func(payload []byte, ct string, err error) {
		if err != nil {
			if v, ok := f.Store.Get(key); ok {
				f.StaleServed++
				sct, spayload, _ := strings.Cut(string(v), "\x00")
				done([]byte(spayload), sct, nil)
				return
			}
			done(nil, "", err)
			return
		}
		// Content type and payload share one value; the type never
		// contains NUL.
		if f.Store.PutEvict(key, append([]byte(ct+"\x00"), payload...)) == nil {
			f.Cached++
		}
		done(payload, ct, nil)
	})
}

// Submit passes through unchanged: transactions are not cacheable.
func (f *OfflineFetcher) Submit(origin simnet.Addr, path, contentType string, body []byte, done func([]byte, string, error)) {
	f.Inner.Submit(origin, path, contentType, body, done)
}
