package store

import (
	"sync"
	"sync/atomic"
	"time"
)

// The parallel I/O fast path. A Store's disks are independent devices, so
// every multi-unit operation — the G−1 survivor reads of a degraded or
// healing read, the pre-reads and commits of a parity update, the
// per-stripe jobs of a range operation — is a batch of accesses that can
// be in flight simultaneously. fanOut is the single primitive all of them
// use: it runs the items of one batch across a bounded set of helper
// goroutines drawn from the store's I/O pool, with the submitting
// goroutine always working too. The whole-array passes use sweep instead:
// fixed contiguous shards, paced by a throttle.
//
// The pool is deliberately opportunistic. Helpers are acquired with a
// non-blocking try, so a saturated store (every client already keeping a
// core and a disk busy) degrades to exactly the serial engine — no queue,
// no handoff latency, no deadlock — while an idle store (one client
// issuing a wide degraded read, a rebuild sweeping alone) gets the full
// fan-out. Because acquisition never blocks, nested fan-outs (a range
// operation's per-stripe job issuing a degraded read that itself gathers
// survivors) are safe: the inner batch simply runs inline when the pool's
// tokens are spent.
//
// Config.IOWorkers=1 disables the pool entirely; every batch then runs
// in submission order on the submitting goroutine, and every sweep is one
// shard, byte-identical to the serial engine (pinned by
// TestParallelMatchesSerial).

// ioPool bounds the helper goroutines a store may have in flight. Tokens
// are taken with a lock-free try-acquire; holders run exactly one batch
// and hand the token back.
type ioPool struct {
	free atomic.Int32
}

// tryAcquire claims up to want tokens without blocking and returns how
// many it got (possibly zero).
func (p *ioPool) tryAcquire(want int) int {
	for {
		f := p.free.Load()
		if f <= 0 || want <= 0 {
			return 0
		}
		n := int32(want)
		if n > f {
			n = f
		}
		if p.free.CompareAndSwap(f, f-n) {
			return int(n)
		}
	}
}

func (p *ioPool) release(n int) { p.free.Add(int32(n)) }

// lowestErr keeps the lowest-indexed of the errors reported to it by
// concurrent workers, so the error a batch returns does not depend on
// how its items interleaved.
type lowestErr struct {
	mu  sync.Mutex
	at  int64
	err error
}

func (l *lowestErr) set(i int64, err error) {
	l.mu.Lock()
	if l.err == nil || i < l.at {
		l.err, l.at = err, i
	}
	l.mu.Unlock()
}

// fanBatch is one fan-out in flight: items are claimed by atomic counter
// so helpers and the submitter load-balance; the first error (lowest item
// index among those observed) wins and cancels the items not yet claimed.
type fanBatch struct {
	fn   func(int) error
	n    int64
	next atomic.Int64
	stop atomic.Bool
	lowestErr
	wg sync.WaitGroup
}

func (b *fanBatch) run() {
	for !b.stop.Load() {
		i := b.next.Add(1) - 1
		if i >= b.n {
			return
		}
		if err := b.fn(int(i)); err != nil {
			b.set(i, err)
			b.stop.Store(true)
			return
		}
	}
}

// fanOut runs fn(0), …, fn(n−1), fanning the calls across idle I/O pool
// helpers with the caller participating. When no helper is available (or
// the store is configured serial) the calls run in index order on the
// calling goroutine with the first error aborting the rest — the serial
// engine's exact behavior. With helpers, in-flight calls complete after
// an error but unclaimed ones are cancelled, and the returned error is
// the lowest-indexed one observed.
func (s *Store) fanOut(n int, fn func(int) error) error {
	want := n - 1
	if want > s.ioWorkers-1 {
		want = s.ioWorkers - 1
	}
	helpers := 0
	if want > 0 {
		helpers = s.pool.tryAcquire(want)
	}
	if helpers == 0 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	b := fanBatch{fn: fn, n: int64(n)}
	b.wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		go func() {
			defer func() {
				s.pool.release(1)
				b.wg.Done()
			}()
			b.run()
		}()
	}
	b.run()
	b.wg.Wait()
	return b.err
}

// sweep visits every index of [0, n) — the engine's whole-array passes
// (Rebuild's offsets, Scrub's and CheckParity's stripes, the recovery
// pass's dirty stripes) all run through it. [0, n) splits into IOWorkers
// contiguous shards swept concurrently, shard 0 on the caller; within a
// shard indexes ascend, so IOWorkers=1 is the serial sweep. After each
// visit a shard sleeps throttle×shards, so throttle paces the whole sweep
// at the same aggregate rate at any worker count — the paper's §9 knob.
// The first error stops every shard, and the lowest-indexed error
// observed is returned.
func (s *Store) sweep(n int64, throttle time.Duration, visit func(i int64) error) error {
	shards := min(int64(s.ioWorkers), n)
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		errs lowestErr
	)
	pause := throttle * time.Duration(shards)
	run := func(lo, hi int64) {
		for i := lo; i < hi && !stop.Load(); i++ {
			if err := visit(i); err != nil {
				errs.set(i, err)
				stop.Store(true)
				return
			}
			if pause > 0 {
				time.Sleep(pause)
			}
		}
	}
	for w := int64(1); w < shards; w++ {
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			run(lo, hi)
		}(n*w/shards, n*(w+1)/shards)
	}
	if shards > 0 {
		run(0, n/shards)
	}
	wg.Wait()
	return errs.err
}
