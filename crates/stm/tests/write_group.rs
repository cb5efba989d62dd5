//! A commit handler's grouped writes publish as one write set: a reader in
//! any of the three read modes sees all of them or none, never a
//! multi-var update half done.

use std::sync::{Arc, Barrier};
use stm::{atomic, atomic_read, TVar};

/// The handler writes `a`, pauses while the main thread reads `(a, b)` in
/// every read mode, then writes `b`. Inside one write group nothing is
/// published until the group ends, so every paused read sees `(0, 0)`;
/// per-var publishing would show `(1, 0)`.
#[test]
fn paused_grouped_handler_is_invisible_to_every_read_mode() {
    let (a, b) = (TVar::new(0u64), TVar::new(0u64));
    let pause = Arc::new(Barrier::new(2));
    std::thread::scope(|s| {
        let (ha, hb, hp) = (a.clone(), b.clone(), Arc::clone(&pause));
        s.spawn(move || {
            atomic(|tx| {
                let (ha, hb, hp) = (ha.clone(), hb.clone(), Arc::clone(&hp));
                // txlint: allow(TX004) — the handler's own writes are the subject
                tx.on_commit_top(move |tx| {
                    tx.write_group(|tx| {
                        ha.write(tx, 1);
                        assert_eq!(ha.read(tx), 1, "a group reads its own writes");
                        hp.wait(); // `a` written: let the reader in
                        hp.wait(); // reader done: finish the update
                        hb.write(tx, 1);
                    });
                });
            });
        });

        pause.wait();
        let validated = atomic(|tx| (a.read(tx), b.read(tx)));
        let flattened = atomic(|tx| tx.open_read(|tx| (a.read(tx), b.read(tx))));
        let snapshot = atomic_read(|tx| (a.read(tx), b.read(tx)));
        pause.wait();
        assert_eq!(validated, (0, 0), "atomic saw a half-published group");
        assert_eq!(flattened, (0, 0), "open_read saw a half-published group");
        assert_eq!(snapshot, (0, 0), "atomic_read saw a half-published group");
    });
    assert_eq!(atomic(|tx| (a.read(tx), b.read(tx))), (1, 1));
    assert_eq!(atomic_read(|tx| (a.read(tx), b.read(tx))), (1, 1));
}

/// Outside direct mode a group is a plain call: speculative writes stay
/// buffered in the transaction as always.
#[test]
fn write_group_is_transparent_outside_handlers() {
    let a = TVar::new(0u64);
    let seen = atomic(|tx| {
        tx.write_group(|tx| a.write(tx, 5));
        a.read(tx)
    });
    assert_eq!(seen, 5);
    assert_eq!(a.read_committed(), 5);
}

/// A group over more vars than its id mask has bits, of two value types,
/// with one var written twice: reads inside see the latest buffered
/// values, and every var publishes once, at one shared version.
#[test]
fn large_group_publishes_latest_values_at_one_version() {
    let nums: Vec<TVar<u64>> = (0..70).map(TVar::new).collect();
    let name = TVar::new(String::from("old"));
    let (hn, hs) = (nums.clone(), name.clone());
    atomic(|tx| {
        let (hn, hs) = (hn.clone(), hs.clone());
        // txlint: allow(TX004) — the handler's own writes are the subject
        tx.on_commit_top(move |tx| {
            tx.write_group(|tx| {
                for (i, v) in hn.iter().enumerate() {
                    v.write(tx, 1000 + i as u64);
                }
                hn[3].write(tx, 7);
                hs.write(tx, "new".into());
                let seen: Vec<u64> = hn.iter().map(|v| v.read(tx)).collect();
                assert_eq!(seen[3], 7, "the second write to a var wins");
                assert_eq!(seen[69], 1069);
                assert_eq!(hs.read(tx), "new");
            });
        });
    });
    let version = name.version();
    assert_eq!(name.read_committed(), "new");
    for (i, v) in nums.iter().enumerate() {
        let want = if i == 3 { 7 } else { 1000 + i as u64 };
        assert_eq!(v.read_committed(), want);
        assert_eq!(v.version(), version, "var {i} published at its own version");
    }
}
