//! Seeded TX014 violations: allocating payload construction at counter
//! emission sites in a marked file.
//! NOT compiled — input for `txlint --self-test`.
//!
//! txlint: metrics

// Every emission below builds its payload on the hot path instead of
// passing integers computed without allocation.
fn emit_with_allocations(ns: u64, class_name: &str, label: &Label, t0: Option<Instant>) {
    // Interning per emission takes the global symbol-table mutex on a path
    // that runs inside the commit machinery; the Sym belongs in the class
    // constructor.
    obs::hist_record_ns(kind_of(intern(class_name)), ns); // TX014

    // format! allocates a String per emission.
    obs::chain_reclaimed(count_of(format!("{class_name}-hot"))); // TX014

    // So do String::from and .to_string().
    obs::hist_elapsed(kind_of(String::from("wait")), t0); // TX014
    obs::hist_record_ns(kind_of(label.to_string()), ns); // TX014
}
