package apps

import (
	"fmt"
	"time"

	"mcommerce/internal/core"
	"mcommerce/internal/database"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
)

// StreamPort is the host's raw media-streaming port. The protocol is a
// single request line "STREAM <id>\n" answered with the media bytes.
const StreamPort simnet.Port = 8100

// StreamPlayer models progressive-download playback: media plays at a
// fixed bitrate once a prebuffer fills; if the network cannot keep up the
// buffer drains and playback stalls (a rebuffer event) until the prebuffer
// refills. It quantifies the paper's 3G motivation — "download video
// images and other bandwidth-intensive content" — as startup delay and
// stall counts per bearer.
type StreamPlayer struct {
	sched     *simnet.Scheduler
	bitrate   float64 // bits per second consumed during playback
	prebuffer int     // bytes needed to (re)start playback
	total     int     // media size; playback finishes at this many bytes

	received int
	played   float64
	playing  bool
	lastTick time.Duration
	drain    simnet.Timer

	startedAt  time.Duration
	started    bool
	finished   bool
	finishedAt time.Duration
	stalls     int
	stallStart time.Duration
	stallTime  time.Duration
}

// NewStreamPlayer creates a player for a media object of totalBytes that
// plays at bitrateBps after prebufferBytes arrive.
func NewStreamPlayer(sched *simnet.Scheduler, bitrateBps float64, prebufferBytes, totalBytes int) *StreamPlayer {
	return &StreamPlayer{
		sched:     sched,
		bitrate:   bitrateBps,
		prebuffer: prebufferBytes,
		total:     totalBytes,
	}
}

// Feed delivers n downloaded bytes to the player.
func (p *StreamPlayer) Feed(n int) {
	if p.finished || n <= 0 {
		return
	}
	p.advance()
	p.received += n
	if p.received > p.total {
		p.received = p.total
	}
	if !p.playing {
		need := p.prebuffer
		if p.total-int(p.played) < need {
			need = p.total - int(p.played) // tail shorter than the prebuffer
		}
		if p.received-int(p.played) >= need {
			if !p.started {
				p.started = true
				p.startedAt = p.sched.Now()
			} else {
				p.stallTime += p.sched.Now() - p.stallStart
			}
			p.playing = true
			p.lastTick = p.sched.Now()
		}
	}
	p.reschedule()
}

// advance accounts for playback since the last event.
func (p *StreamPlayer) advance() {
	if !p.playing {
		return
	}
	now := p.sched.Now()
	p.played += (now - p.lastTick).Seconds() * p.bitrate / 8
	if p.played > float64(p.received) {
		p.played = float64(p.received)
	}
	p.lastTick = now
}

// reschedule arms the buffer-drain timer for the moment playback catches
// up with the download.
func (p *StreamPlayer) reschedule() {
	p.drain.Cancel()
	if !p.playing || p.finished {
		return
	}
	bufferedBits := (float64(p.received) - p.played) * 8
	eta := time.Duration(bufferedBits / p.bitrate * float64(time.Second))
	p.drain = p.sched.After(eta, p.onDrained)
}

// onDrained fires when the buffer empties: end of media or a stall.
func (p *StreamPlayer) onDrained() {
	p.advance()
	p.playing = false
	if p.received >= p.total {
		p.finished = true
		p.finishedAt = p.sched.Now()
		return
	}
	p.stalls++
	p.stallStart = p.sched.Now()
}

// StreamStats is the playback quality report.
type StreamStats struct {
	Started      bool
	Finished     bool
	StartupDelay time.Duration // time to first frame
	Stalls       int           // rebuffer events
	StallTime    time.Duration // total time frozen mid-playback
	FinishedAt   time.Duration
}

// Stats returns the playback report so far.
func (p *StreamPlayer) Stats() StreamStats {
	return StreamStats{
		Started:      p.started,
		Finished:     p.finished,
		StartupDelay: p.startedAt,
		Stalls:       p.stalls,
		StallTime:    p.stallTime,
		FinishedAt:   p.finishedAt,
	}
}

// RegisterStreaming installs the raw streaming listener on a host (the
// entertainment service's companion for progressive delivery; the plain
// /media/download endpoint delivers store-and-forward).
func RegisterStreaming(h *core.Host) error {
	return h.Stack.Listen(StreamPort, mtcp.Options{}, func(c *mtcp.Conn) {
		var req []byte
		served := false
		c.OnData(func(b []byte) {
			if served {
				return
			}
			req = append(req, b...)
			for i, ch := range req {
				if ch != '\n' {
					continue
				}
				served = true
				line := string(req[:i])
				var id string
				if _, err := fmt.Sscanf(line, "STREAM %s", &id); err != nil {
					c.Close()
					return
				}
				size := streamSizeFor(h, id)
				if size <= 0 {
					c.Close()
					return
				}
				body := make([]byte, size)
				c.Send(body)
				c.Close()
				return
			}
		})
	})
}

// streamSizeFor looks a media item's size up in the database.
func streamSizeFor(h *core.Host, id string) int64 {
	var size int64
	err := h.DB.Atomically(func(tx *database.Tx) error {
		row, err := tx.Get("media", id)
		if err != nil {
			return err
		}
		size, _ = row["bytes"].(int64)
		return nil
	})
	if err != nil {
		return 0
	}
	return size
}

// StreamMedia plays a media item from origin over the given TCP stack,
// feeding the player as bytes arrive. done fires when the stream's
// connection closes (the player's Stats say whether playback finished).
func StreamMedia(stack *mtcp.Stack, origin simnet.NodeID, id string, player *StreamPlayer, done func(error)) {
	stack.Dial(simnet.Addr{Node: origin, Port: StreamPort}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			done(err)
			return
		}
		c.OnData(func(b []byte) { player.Feed(len(b)) })
		c.OnClose(func(err error) { done(err) })
		c.Send([]byte("STREAM " + id + "\n"))
		c.Close()
	})
}
