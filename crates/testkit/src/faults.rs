//! The curated fault matrix: every failpoint site with the spec a test
//! arms it with. Faults are armed on the handle of the object under test
//! (`graql_types::failpoints::Faults`), so tests that arm them run
//! concurrently with everything else.

/// One row of the fault matrix: a failpoint site and the spec to arm it
/// with (`[PCT%][CNT*]ACTION[(ARG)]`, see `graql_types::failpoints::parse_spec`).
#[derive(Debug, Clone, Copy)]
pub struct FaultCase {
    pub site: &'static str,
    pub spec: &'static str,
}

const fn case(site: &'static str, spec: &'static str) -> FaultCase {
    FaultCase { site, spec }
}

/// Every compiled failpoint site, armed with a *transient* spec: faults
/// fire a bounded number of times (`N*`), so an idempotent request must
/// eventually succeed through the client's retry loop. Sites whose
/// failures are not transient by nature (persist I/O, execution
/// cancellation) are listed too — their contract is a clean typed error,
/// not recovery.
pub const FAULT_MATRIX: &[FaultCase] = &[
    // Frame-level transport faults (crates/net/src/frame.rs).
    case("net/frame/read-delay", "2*delay(40)"),
    case("net/frame/read-err", "2*err"),
    case("net/frame/write-delay", "2*delay(40)"),
    case("net/frame/write-err", "2*err"),
    case("net/frame/write-corrupt", "1*corrupt"),
    case("net/frame/write-truncate", "1*truncate"),
    // Server-side faults (crates/net/src/server.rs).
    case("net/server/accept-refuse", "1*refuse"),
    case("net/server/exec-delay", "2*delay(40)"),
    case("net/server/drop-before-reply", "1*err"),
    // Admission-control shedding: the server answers Submit with the
    // retryable "server busy" error, so the client's backoff loop must
    // absorb a bounded burst of sheds.
    case("net/server/shed", "2*refuse"),
    // Client-side fault (crates/net/src/client.rs).
    case("net/client/send-delay", "2*delay(40)"),
    // Persistence and execution faults (crates/core).
    case("core/persist/save-io", "1*err"),
    case("core/persist/save-commit", "1*err"),
    case("core/persist/load-io", "1*err"),
    // Write-ahead-log faults (crates/core/src/wal). `err` on append/fsync
    // is transient: the commit is refused with a typed error, the log is
    // rolled back to its durable prefix, and the next commit succeeds.
    // `truncate`/`corrupt` on append simulate a crash mid-write: they
    // leave a torn/corrupt tail on disk and poison the WAL, and the
    // recovery path must discard the tail on reopen (tests/wal_recovery.rs
    // drives those through reopen cycles).
    case("core/wal/append", "1*err"),
    case("core/wal/append", "1*truncate"),
    case("core/wal/append", "1*corrupt"),
    case("core/wal/fsync", "1*err"),
    case("core/wal/checkpoint", "1*err"),
    case("core/exec/cancel", "1*err"),
    case("core/exec/cancel-stmt", "1*err"),
    // Governance: a fault at the per-batch guard checkpoint aborts the
    // query mid-kernel with a typed error; the engine must stay usable.
    case("core/exec/batch", "1*err"),
    // Morsel scheduler faults (crates/table/src/morsel.rs): `dispatch`
    // fires inside a morsel claim (from a worker thread when threads > 1),
    // `merge` fires on the caller thread just before slot reassembly. Both
    // must abort the query with one typed error and leave the server up.
    case("core/exec/morsel-dispatch", "1*err"),
    case("core/exec/morsel-merge", "1*err"),
    // Replication faults (crates/net/src/{server,replica}.rs). `stream`
    // fires on the primary before a batch is shipped; `apply` fires on
    // the replica before a received batch is applied; `ack` fires on the
    // replica after the batch is locally durable but before the ack is
    // sent. All three kill the subscription; the contract is exact
    // LSN-resume on reconnect — no record applied twice or skipped
    // (tests/replication.rs drives these through reconnect cycles; the
    // generic matrix rig skips them because no replication stream runs
    // there).
    case("net/repl/stream", "1*err"),
    case("net/repl/apply", "1*err"),
    case("net/repl/ack", "1*err"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use graql_types::failpoints;

    #[test]
    fn matrix_covers_every_compiled_site_with_valid_specs() {
        for c in FAULT_MATRIX {
            failpoints::parse_spec(c.spec)
                .unwrap_or_else(|e| panic!("{}: bad spec {:?}: {e}", c.site, c.spec));
        }
        // Every subsystem is represented.
        for prefix in [
            "net/frame/",
            "net/server/",
            "net/client/",
            "net/repl/",
            "core/",
        ] {
            assert!(
                FAULT_MATRIX.iter().any(|c| c.site.starts_with(prefix)),
                "no matrix entry under {prefix}"
            );
        }
    }
}
