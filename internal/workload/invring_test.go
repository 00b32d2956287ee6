package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"mcommerce/internal/mobiledb"
	"mcommerce/internal/simnet"
)

// linearRing is the reference the indexed ring must match: the tail of
// the stream kept as a slice, compacted on overflow, and a catch-up that
// applies every missed tick in order.
type linearRing struct {
	ticks   []mobiledb.Invalidation
	through uint64
}

func (r *linearRing) recv(msg *mobiledb.InvalidationMsg) {
	if msg.Through <= r.through {
		return
	}
	r.ticks = append(r.ticks, msg.Invalid...)
	if over := len(r.ticks) - syncRingMax; over > 0 {
		r.ticks = append(r.ticks[:0], r.ticks[over:]...)
	}
	r.through = msg.Through
}

func (r *linearRing) catchUp(s *mobiledb.Store, pos *uint64) {
	if r.through <= *pos {
		return
	}
	start := len(r.ticks) - int(r.through-*pos)
	if start < 0 {
		start = 0
	}
	s.ApplyInvalidations(r.ticks[start:])
	*pos = r.through
}

// confirm installs server rows for keys on a store, as a sync verdict
// would.
func confirm(s *mobiledb.Store, keys []string, vers []uint64) {
	resp := &mobiledb.UpSyncResponse{}
	for i, k := range keys {
		resp.Results = append(resp.Results, mobiledb.WriteResult{
			Key: k, Accepted: true, SrvVer: vers[i], Value: []byte("v" + k),
		})
	}
	s.FinishUpSync(resp)
}

// TestInvRingMatchesLinearCatchUp drives a cell ring with random tick
// streams and checks every device catch-up against a shadow device that
// applies the missed slice of a linear ring tick by tick. The streams
// overflow the ring, send single messages longer than the ring, jump
// Through past their batch, repeat stale and duplicate broadcasts, and
// lower per-key versions as a failover truncating the log would; devices
// catch up both from inside the ring and from behind it.
func TestInvRingMatchesLinearCatchUp(t *testing.T) {
	const (
		devices  = 6
		hotKeys  = 12
		steps    = 600
		maxTicks = 40
	)
	var inside, behind, lenDiffs, dropped int
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := &SyncFlows{}
		var ref linearRing
		devs := make([]syncDevice, devices)
		shadow := make([]*mobiledb.Store, devices)
		shadowPos := make([]uint64, devices)
		for i := range devs {
			name := fmt.Sprintf("d%d", i)
			devs[i] = syncDevice{f: f, id: i, store: mobiledb.New(name, 0)}
			shadow[i] = mobiledb.New(name, 0)
		}
		ver := make([]uint64, hotKeys) // the tier's version per hot key
		unique := 0
		var last *mobiledb.InvalidationMsg
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(20); {
			case op < 9: // a broadcast
				n := rng.Intn(maxTicks)
				if rng.Intn(40) == 0 {
					n = syncRingMax + 1 + rng.Intn(600)
				}
				msg := &mobiledb.InvalidationMsg{Invalid: make([]mobiledb.Invalidation, n)}
				for j := range msg.Invalid {
					if rng.Intn(10) < 7 {
						k := rng.Intn(hotKeys)
						ver[k] += uint64(1 + rng.Intn(3))
						msg.Invalid[j] = mobiledb.Invalidation{Key: "k" + strconv.Itoa(k), SrvVer: ver[k]}
					} else {
						unique++
						msg.Invalid[j] = mobiledb.Invalidation{Key: "u" + strconv.Itoa(unique), SrvVer: 1}
					}
				}
				msg.Through = f.invThrough + uint64(n)
				switch rng.Intn(6) {
				case 0: // Through jumps further than the batch
					msg.Through += uint64(1 + rng.Intn(2*syncRingMax))
				case 1: // stale: not past the watermark
					msg.Through = f.invThrough - uint64(rng.Intn(int(min(f.invThrough, 5))+1))
				}
				last = msg
				f.recvInvalidation(f.invPort(), simnet.Addr{}, msg, 0)
				ref.recv(msg)
			case op < 10: // a duplicate of the last broadcast
				if last != nil {
					f.recvInvalidation(f.invPort(), simnet.Addr{}, last, 0)
					ref.recv(last)
				}
			case op < 11: // a failover truncates: versions fall
				for k := range ver {
					if rng.Intn(2) == 0 {
						ver[k] -= min(ver[k], uint64(rng.Intn(8)))
					}
				}
			case op < 14: // a device caches rows near the tier's versions
				i := rng.Intn(devices)
				var keys []string
				var vers []uint64
				for c := rng.Intn(4); c >= 0; c-- {
					k := rng.Intn(hotKeys)
					keys = append(keys, "k"+strconv.Itoa(k))
					vers = append(vers, ver[k]+uint64(rng.Intn(6))-min(ver[k], 3))
				}
				confirm(devs[i].store, keys, vers)
				confirm(shadow[i], keys, vers)
			case op < 15: // a device writes tentatively
				i := rng.Intn(devices)
				key := "k" + strconv.Itoa(rng.Intn(hotKeys))
				if err := devs[i].store.PutTentative(key, []byte("t")); err != nil {
					t.Fatal(err)
				}
				if err := shadow[i].PutTentative(key, []byte("t")); err != nil {
					t.Fatal(err)
				}
			default: // a device catches up; device 0 rarely, so it falls behind
				i := rng.Intn(devices)
				if i == 0 && rng.Intn(8) != 0 {
					continue
				}
				d := &devs[i]
				if d.invPos < f.invThrough {
					if f.invThrough-d.invPos > f.inv.length() {
						behind++
					} else {
						inside++
					}
				}
				before := d.store.Invalidations
				d.catchUpInvalidations()
				ref.catchUp(shadow[i], &shadowPos[i])
				dropped += int(d.store.Invalidations - before)
				if d.invPos != shadowPos[i] {
					t.Fatalf("seed %d step %d: device %d at %d, shadow at %d", seed, step, i, d.invPos, shadowPos[i])
				}
				got, want := d.store.ChangesSince(0), shadow[i].ChangesSince(0)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: device %d entries\n got %+v\nwant %+v", seed, step, i, got, want)
				}
				if d.store.UsedBytes() != shadow[i].UsedBytes() || d.store.Invalidations != shadow[i].Invalidations {
					t.Fatalf("seed %d step %d: device %d used/invalidations %d/%d, shadow %d/%d", seed, step, i,
						d.store.UsedBytes(), d.store.Invalidations, shadow[i].UsedBytes(), shadow[i].Invalidations)
				}
			}
			if f.inv.keys > syncRingMax {
				t.Fatalf("seed %d step %d: index holds %d keys, ring %d", seed, step, f.inv.keys, syncRingMax)
			}
			if step%8 == 0 {
				distinct := map[string]bool{}
				for _, inv := range ref.ticks {
					distinct[inv.Key] = true
				}
				if f.inv.keys != len(distinct) {
					t.Fatalf("seed %d step %d: index holds %d keys, ring names %d", seed, step, f.inv.keys, len(distinct))
				}
			}
			if uint64(len(ref.ticks)) != f.inv.length() {
				lenDiffs++
			}
		}
	}
	if lenDiffs != 0 {
		t.Errorf("ring length differed from the reference %d times", lenDiffs)
	}
	if inside == 0 || behind == 0 || dropped == 0 {
		t.Errorf("stream did not exercise the window: inside=%d behind=%d dropped=%d", inside, behind, dropped)
	}
}

// TestFillWriteValue pins a write's value to the fmt form it replaced,
// truncated to the value size, ids and sequence numbers longer than it
// included.
func TestFillWriteValue(t *testing.T) {
	for _, size := range []int{1, 4, 8, 32} {
		for _, id := range []int{0, 7, 1234567, 1<<31 - 1} {
			for _, wseq := range []uint64{1, 99, 1 << 40, 1<<64 - 1} {
				val := make([]byte, size)
				for i := range val {
					val[i] = 0xff // a reused buffer holds an older value
				}
				want := make([]byte, size)
				copy(want, fmt.Sprintf("d%d.%d", id, wseq))
				if got := fillWriteValue(val, id, wseq); string(got) != string(want) {
					t.Errorf("size %d id %d wseq %d: %q, want %q", size, id, wseq, got, want)
				}
			}
		}
	}
}

// BenchmarkSyncCatchUp is one device with nine cached keys catching up
// over a full ring it is 16 or 1024 ticks behind. The ring names the
// device's keys at versions below its own, so nothing drops and every
// iteration does the same work. The catch-up cost should follow the
// device's keys, not the backlog, so behind16 and behind1024 should
// take about the same time.
func BenchmarkSyncCatchUp(b *testing.B) {
	for _, behind := range []uint64{16, 1024} {
		b.Run("behind"+strconv.FormatUint(behind, 10), func(b *testing.B) {
			f := &SyncFlows{}
			d := &syncDevice{f: f, store: mobiledb.New("dev", 0)}
			keys := []string{"cell0.d0"}
			vers := []uint64{1 << 20}
			for i := 0; i < 8; i++ {
				keys = append(keys, "s"+strconv.Itoa(i))
				vers = append(vers, 1<<20)
			}
			confirm(d.store, keys, vers)
			msg := &mobiledb.InvalidationMsg{Invalid: make([]mobiledb.Invalidation, syncRingMax)}
			for i := range msg.Invalid {
				key := "cell0.d" + strconv.Itoa(1+i%500)
				if i%4 == 0 {
					key = keys[i%len(keys)]
				}
				msg.Invalid[i] = mobiledb.Invalidation{Key: key, SrvVer: uint64(1 + i)}
			}
			msg.Through = syncRingMax
			f.recvInvalidation(f.invPort(), simnet.Addr{}, msg, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.invPos = f.invThrough - behind
				d.catchUpInvalidations()
			}
			if d.store.Invalidations != 0 {
				b.Fatalf("catch-up dropped %d entries", d.store.Invalidations)
			}
		})
	}
}
