//! Seeded TX009 violations: allocating payload construction at trace
//! emission sites.
//! NOT compiled — input for `txlint --self-test`.

// Every emission below builds its payload on the hot path instead of
// passing integers and a pre-interned Sym.
fn emit_with_allocations(id: u64, cause: AbortCause, class_name: &str, label: &Label) {
    // Interning per event takes the global symbol-table mutex on a path
    // that runs under contention; the Sym belongs in the class constructor.
    obs::sem_lock_blocked(intern(class_name), 3); // TX009

    // format! allocates a String per event.
    obs::txn_abort(id, cause, format!("doomed by {id}")); // TX009

    // So do String::from and .to_string().
    obs::doom_edge(id, id + 1, String::from("map"), kind, hash, stripe, obs, effect, false); // TX009
    obs::lane_enter(label.to_string()); // TX009
}
