package apps

import (
	"errors"

	"mcommerce/internal/core"
	"mcommerce/internal/database"
	"mcommerce/internal/device"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

// Entertainment is Table 1's "Music/video/game downloads" row for the
// entertainment industry: a media catalog whose downloads are the system's
// bulk-transfer workload (they are what stress a bearer's bandwidth —
// exactly the paper's 3G motivation: "allowing users to download video
// images and other bandwidth-intensive content").
type Entertainment struct{}

// NewEntertainment returns the media-download service.
func NewEntertainment() *Entertainment { return &Entertainment{} }

var _ Service = (*Entertainment)(nil)

// Category implements Service.
func (s *Entertainment) Category() string { return "Entertainment" }

// Application implements Service.
func (s *Entertainment) Application() string { return "Music/video/game downloads" }

// Clients implements Service.
func (s *Entertainment) Clients() string { return "Entertainment industry" }

// MediaItem is one downloadable title.
type MediaItem struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Kind  string `json:"kind"` // music, video, game
	Bytes int64  `json:"bytes"`
}

// Register implements Service.
func (s *Entertainment) Register(h *core.Host) error {
	if err := h.DB.CreateTable("media", database.Schema{
		{Name: "id", Type: database.TypeString},
		{Name: "title", Type: database.TypeString},
		{Name: "kind", Type: database.TypeString},
		{Name: "bytes", Type: database.TypeInt},
	}, "id"); err != nil {
		return err
	}
	seed := []database.Row{
		{"id": "ring1", "title": "Monophonic Ringtone", "kind": "music", "bytes": int64(4 << 10)},
		{"id": "song1", "title": "Pop Single", "kind": "music", "bytes": int64(200 << 10)},
		{"id": "clip1", "title": "Movie Trailer", "kind": "video", "bytes": int64(900 << 10)},
		{"id": "game1", "title": "Puzzle Game", "kind": "game", "bytes": int64(64 << 10)},
	}
	if err := h.DB.Atomically(func(tx *database.Tx) error {
		for _, r := range seed {
			if err := tx.Insert("media", r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	h.Server.Handle("/media/catalog", func(r *webserver.Request) *webserver.Response {
		var out []MediaItem
		err := h.DB.Atomically(func(tx *database.Tx) error {
			return tx.Scan("media", func(row database.Row) bool {
				out = append(out, mediaView(row))
				return true
			})
		})
		if err != nil {
			return fail(500, "catalog: %v", err)
		}
		return respondJSON(out)
	})

	var pattern mediaPattern
	h.Server.Handle("/media/download", func(r *webserver.Request) *webserver.Response {
		id := r.Query["id"]
		var size int64
		err := h.DB.Atomically(func(tx *database.Tx) error {
			row, err := tx.Get("media", id)
			if err != nil {
				return err
			}
			size, _ = row["bytes"].(int64)
			return nil
		})
		if errors.Is(err, database.ErrNotFound) {
			return fail(404, "no media %s", id)
		}
		if err != nil {
			return fail(500, "download: %v", err)
		}
		return webserver.NewResponse(200, webserver.TypeBytes, pattern.body(int(size)))
	})
	return nil
}

func mediaView(row database.Row) MediaItem {
	id, _ := row["id"].(string)
	title, _ := row["title"].(string)
	kind, _ := row["kind"].(string)
	size, _ := row["bytes"].(int64)
	return MediaItem{ID: id, Title: title, Kind: kind, Bytes: size}
}

// mediaPattern synthesizes download content (a real deployment would
// stream from object storage) in a byte pattern clients can verify. A
// body is a pure function of its size, so every body is a prefix of one
// buffer, grown to the largest title served (the catalog bounds it at
// 900 KiB) and shared read-only between downloads.
type mediaPattern []byte

// body returns the content of a size-byte title. Its capacity is its
// length, so a consumer's append copies instead of writing into the
// shared buffer.
func (m *mediaPattern) body(size int) []byte {
	if size > len(*m) {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(i * 131)
		}
		*m = b
	}
	return (*m)[:size:size]
}

// VerifyMediaContent checks a downloaded body against the service's
// synthesis pattern.
func VerifyMediaContent(body []byte) bool {
	for i := range body {
		if body[i] != byte(i*131) {
			return false
		}
	}
	return true
}

// EntertainmentClient downloads media from a station.
type EntertainmentClient struct {
	Fetcher device.Fetcher
	Origin  simnet.Addr
}

// Catalog lists downloadable titles.
func (c *EntertainmentClient) Catalog(done func([]MediaItem, error)) {
	get[[]MediaItem](c.Fetcher, c.Origin, "/media/catalog", done)
}

// Download fetches a title's content.
func (c *EntertainmentClient) Download(id string, done func([]byte, error)) {
	c.Fetcher.Fetch(c.Origin, "/media/download?id="+id, func(payload []byte, _ string, err error) {
		done(payload, err)
	})
}
