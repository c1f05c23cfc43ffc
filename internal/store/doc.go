// Package store is a real (non-simulated-time) declustered storage
// engine: the paper's parity-declustered layout serving actual bytes to
// concurrent goroutines, rather than simulated timings to an event loop.
//
// A Store stripes fixed-size units over C disk backends using the same
// internal/layout mappings as the simulator (block-design declustering or
// left-symmetric RAID 5) and maintains parity with the stripe's erasure
// code: the paper's XOR parity P, or P+Q dual parity when the layout
// carries two parity units. Both codes run one code path — the XOR code is
// the one-parity case of P+Q — so the store stays available through as
// many disk failures as the code corrects: reads of lost units decode on
// the fly from the survivors (under P, the XOR of the G−1 others), writes
// to lost units fold into the parities, and a background Rebuild sweep
// regenerates a failed disk's contents onto a replacement stripe by
// stripe while client goroutines keep issuing requests.
//
// Concurrency model. Every operation runs under its parity stripe's lock
// (a striped RWMutex table): reads share, parity updates and rebuild
// exclude. Failure-state transitions (Fail, Replace, the heal at the end
// of Rebuild) publish an immutable state snapshot through an atomic
// pointer; operations load the snapshot after acquiring their stripe
// lock, so the lock's happens-before edge guarantees each stripe's
// readers observe at least the state of the last writer to that stripe.
// An operation holds at most one stripe lock, so the engine cannot
// deadlock.
//
// Backends implement the Disk interface: NewMemDisk (a byte slice per
// disk) and OpenFileDisk (one flat file per disk) are provided; anything
// addressable by (unit offset → fixed-size block) can slot in, which is
// what keeps mirrored/hybrid organizations implementable later without
// touching the engine. NewFaultDisk wraps any backend with seed-driven
// fault injection (transients, latent sector errors, torn and lost
// writes, corruption, latency) for chaos testing.
//
// Failure and durability contract. Every unit carries an 8-byte checksum
// trailer (PhysUnitSize bytes on the backend); every read verifies it, so
// corruption is detected, never returned. Transient backend errors
// (ErrTransient) retry with exponential backoff; damage — media errors
// (ErrMedia) and persistent checksum mismatches — triggers the
// self-healing read: the unit is reconstructed from its stripe's
// survivors and rewritten in place. Every single-unit read in the
// engine (user reads, parity-update pre-reads, rebuild) takes the same
// path, and a heal first checks that any parity its decode left unused
// balances over the repair; one that does not means more damage than
// the code can locate, and the read fails ErrUnrecoverable with nothing
// rewritten. Persistent errors score against the
// disk and Config.FailThreshold can auto-Fail a dying device. Parity is
// made crash-consistent by a region-granular write-intent log: a stripe's
// region is durably marked dirty before its first write and cleared
// lazily at Store.Sync / clean Close, and New resynchronizes every stripe
// of every dirty region before serving — so a crash mid-parity-update is
// always repaired at next open. Scrub is the background patrol sweep:
// it verifies every stripe's checksums and parity equation under live
// load, repairing damaged units and recomputing parity for stripes
// carrying the lost-write signature. One damage class is beyond unit
// checksums by construction: a write acknowledged but never persisted
// leaves the old, self-consistent unit in place — only the parity scrub
// notices, and it resolves the inconsistency in favor of data.
package store
