//! The router's pure data rules: the probe's shard-map validation, and
//! recombining per-shard replies into the answer one process would give.

use std::collections::BTreeSet;

use concealer_core::{merge_partials, Query, QueryAnswer};
use concealer_server::protocol::{ShardDescriptor, ShardRole, WirePartial};
use concealer_server::{ErrorCode, WireError, WireStats};

use crate::RouterError;

/// Why one shard could not contribute to a request.
#[derive(Debug, Clone)]
pub(crate) enum ShardFailure {
    /// Every member tried is unreachable or backing off, or its stream
    /// tore: the client sees a structured `shard_unavailable`.
    Unavailable(String),
    /// A member answered with a structured refusal.
    Server(WireError),
}

impl From<ShardFailure> for WireError {
    fn from(failure: ShardFailure) -> WireError {
        match failure {
            ShardFailure::Unavailable(msg) => WireError::new(ErrorCode::ShardUnavailable, msg),
            ShardFailure::Server(e) => e,
        }
    }
}

/// What one shard answered for one query: its partials, or its engine's
/// structured error.
pub(crate) type Answered = Result<Vec<WirePartial>, WireError>;

/// One shard's part of one query: what it answered, or why it could not.
pub(crate) type Outcome = Result<Answered, ShardFailure>;

/// Split one configured shard entry into its member addresses (empty
/// segments from stray commas are dropped).
pub(crate) fn split_members(entry: &str) -> Vec<String> {
    entry
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Every configured entry's member addresses, in shard order — refused
/// before anything is dialled if there is no entry or one names no member.
pub(crate) fn member_lists(shards: &[String]) -> Result<Vec<Vec<String>>, RouterError> {
    if shards.is_empty() {
        return Err(RouterError("router configured with no shards".to_string()));
    }
    let lists: Vec<Vec<String>> = shards.iter().map(|entry| split_members(entry)).collect();
    match lists.iter().position(Vec::is_empty) {
        Some(index) => Err(RouterError(format!(
            "shard {index} has no member addresses (entry {:?})",
            shards[index]
        ))),
        None => Ok(lists),
    }
}

/// Validate what every member reported at probe time (`reports[i][m]` is
/// what `addrs[i][m]` said): each of set `i`'s members must report slice
/// `i` of `addrs.len()`, every member must agree on the epoch duration,
/// and every set must have exactly one writer. Refusing to start on a
/// disagreement is what keeps a mis-wired deployment from serving
/// silently wrong (partially merged) answers — and the refusal names
/// **every** disagreeing member and the map it reported, so one startup
/// failure is enough to see the whole mis-wiring instead of fixing it one
/// address at a time.
///
/// Returns each set's writer, and the router's own descriptor: the whole
/// map (`0/1`) in the writer role — clients route ingest through it — with
/// the union of the members' epochs at probe time (a topology snapshot,
/// not a live inventory).
pub(crate) fn validate_map(
    addrs: &[Vec<String>],
    reports: Vec<Vec<ShardDescriptor>>,
) -> Result<(Vec<usize>, ShardDescriptor), RouterError> {
    let total = u32::try_from(addrs.len())
        .map_err(|_| RouterError("shard count exceeds u32".to_string()))?;
    let duration = reports
        .first()
        .and_then(|set| set.first())
        .map_or(0, |d| d.epoch_duration);
    let mut epochs = BTreeSet::new();
    let mut generation = 0u64;
    let mut disagreements: Vec<String> = Vec::new();
    let mut writers = Vec::new();
    for (index, (set, descriptors)) in (0u32..).zip(addrs.iter().zip(reports)) {
        let mut roles: Vec<String> = Vec::new();
        for (addr, d) in set.iter().zip(&descriptors) {
            if d.shard_total != total {
                disagreements.push(format!(
                    "{addr} reports {}/{} but the router is configured with {total} shards",
                    d.shard_index, d.shard_total
                ));
            } else if d.shard_index != index {
                disagreements.push(format!(
                    "{addr} reports slice {}/{} but is listed at position {index} (shard \
                     addresses must be in shard order)",
                    d.shard_index, d.shard_total
                ));
            }
            if d.epoch_duration != duration {
                disagreements.push(format!(
                    "{addr} uses epoch duration {} but shard 0 uses {duration}",
                    d.epoch_duration
                ));
            }
            let role = if d.role == ShardRole::Writer {
                "writer"
            } else {
                "replica"
            };
            roles.push(format!("{addr}={role}"));
            generation = generation.max(d.store_generation);
            epochs.extend(&d.epochs);
        }
        let is_writer = |d: &ShardDescriptor| d.role == ShardRole::Writer;
        let roles = roles.join(", ");
        match descriptors.iter().filter(|d| is_writer(d)).count() {
            1 => writers.extend(descriptors.iter().position(is_writer)),
            0 => disagreements.push(format!("shard {index} replica set has no writer ({roles})")),
            n => disagreements.push(format!(
                "shard {index} replica set has {n} writers ({roles})"
            )),
        }
    }
    if !disagreements.is_empty() {
        return Err(RouterError(format!(
            "shard map disagreement: {}",
            disagreements.join("; ")
        )));
    }
    let descriptor = ShardDescriptor {
        shard_index: 0,
        shard_total: 1,
        epoch_duration: duration,
        epochs: epochs.into_iter().collect(),
        role: ShardRole::Writer,
        store_generation: generation,
    };
    Ok((writers, descriptor))
}

/// Transpose per-shard batch replies into per-query outcome lists for
/// positional merging. A shard whose reply does not line up with the
/// submitted batch is treated as unavailable — a length mismatch means
/// the upstream is not speaking the protocol validated at probe time.
pub(crate) fn split_batch(
    per_shard: Vec<Result<Vec<Answered>, ShardFailure>>,
    queries: usize,
) -> Vec<Vec<Outcome>> {
    let mut per_query: Vec<Vec<Outcome>> = vec![Vec::new(); queries];
    for (shard_index, reply) in per_shard.into_iter().enumerate() {
        let outcomes: Vec<Outcome> = match reply {
            Ok(results) if results.len() == queries => results.into_iter().map(Ok).collect(),
            Ok(results) => vec![
                Err(ShardFailure::Unavailable(format!(
                    "shard {shard_index} answered {} results for a {queries}-query batch",
                    results.len()
                )));
                queries
            ],
            Err(failure) => vec![Err(failure); queries],
        };
        for (slot, outcome) in per_query.iter_mut().zip(outcomes) {
            slot.push(outcome);
        }
    }
    per_query
}

/// Collapse one query's per-shard outcomes into the partial union, or the
/// error the client should see. Structured errors win over transport
/// errors (they are the more specific diagnosis), and the lowest shard
/// index wins among structured errors so the choice is deterministic.
pub(crate) fn combine_partials(outcomes: Vec<Outcome>) -> Answered {
    let mut partials = Vec::new();
    let mut unavailable: Option<String> = None;
    for outcome in outcomes {
        match outcome {
            Ok(Ok(shard_partials)) => partials.extend(shard_partials),
            Ok(Err(e)) | Err(ShardFailure::Server(e)) => return Err(e),
            Err(ShardFailure::Unavailable(msg)) => {
                unavailable.get_or_insert(msg);
            }
        }
    }
    // A missing slice must never silently shrink an answer.
    if let Some(msg) = unavailable {
        return Err(WireError::new(ErrorCode::ShardUnavailable, msg));
    }
    partials.sort_by_key(|p| p.epoch_id);
    Ok(partials)
}

/// Merge a query's partial union into the final answer, reproducing the
/// single-process execution bit-for-bit (including the `NoDataForRange`
/// refusal when no shard held an overlapping epoch).
pub(crate) fn merge_answer(query: &Query, union: Answered) -> Result<QueryAnswer, WireError> {
    let partials = union?.into_iter().map(WirePartial::into_partial).collect();
    merge_partials(query, partials).map_err(|e| WireError::from(&e))
}

/// Fold two shards' backend profiles: counters sum, and the security
/// properties hold only if every slice upholds them.
pub(crate) fn fold_stats(acc: WireStats, stats: WireStats) -> WireStats {
    WireStats {
        backend: acc.backend,
        epochs: acc.epochs + stats.epochs,
        rows_stored: acc.rows_stored + stats.rows_stored,
        volume_hiding: acc.volume_hiding && stats.volume_hiding,
        verifiable: acc.verifiable && stats.verifiable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor(index: u32, total: u32, role: ShardRole) -> ShardDescriptor {
        ShardDescriptor {
            shard_index: index,
            shard_total: total,
            epoch_duration: 3600,
            epochs: vec![u64::from(index)],
            role,
            store_generation: u64::from(index),
        }
    }

    fn addrs(sets: &[usize]) -> Vec<Vec<String>> {
        let mut port = 7000;
        sets.iter()
            .map(|&members| {
                (0..members)
                    .map(|_| {
                        port += 1;
                        format!("127.0.0.1:{port}")
                    })
                    .collect()
            })
            .collect()
    }

    fn refusal(addrs: &[Vec<String>], reports: Vec<Vec<ShardDescriptor>>) -> String {
        validate_map(addrs, reports).unwrap_err().to_string()
    }

    #[test]
    fn a_consistent_map_is_accepted_with_its_writers_and_epochs() {
        let addrs = addrs(&[2, 1]);
        let map = validate_map(
            &addrs,
            vec![
                vec![
                    descriptor(0, 2, ShardRole::Replica),
                    descriptor(0, 2, ShardRole::Writer),
                ],
                vec![descriptor(1, 2, ShardRole::Writer)],
            ],
        )
        .expect("consistent map");
        assert_eq!(
            map,
            (
                vec![1, 0],
                ShardDescriptor {
                    shard_index: 0,
                    shard_total: 1,
                    epoch_duration: 3600,
                    epochs: vec![0, 1],
                    role: ShardRole::Writer,
                    store_generation: 1,
                }
            )
        );
    }

    #[test]
    fn an_empty_shard_list_and_an_entry_without_members_are_refused() {
        let err = member_lists(&[]).unwrap_err().to_string();
        assert!(err.contains("no shards"), "{err}");
        let err = member_lists(&["127.0.0.1:7001".to_string(), " , ".to_string()])
            .unwrap_err()
            .to_string();
        assert!(err.contains("shard 1 has no member addresses"), "{err}");
    }

    #[test]
    fn a_wrong_total_and_a_wrong_position_are_refused_naming_each_member() {
        let addrs = addrs(&[1, 1]);
        let err = refusal(
            &addrs,
            vec![
                vec![descriptor(1, 2, ShardRole::Writer)],
                vec![descriptor(0, 3, ShardRole::Writer)],
            ],
        );
        assert!(
            err.contains(&format!("{} reports slice 1/2", addrs[0][0])),
            "{err}"
        );
        assert!(err.contains("shard order"), "{err}");
        assert!(
            err.contains(&format!(
                "{} reports 0/3 but the router is configured with 2 shards",
                addrs[1][0]
            )),
            "{err}"
        );
    }

    #[test]
    fn diverging_epoch_durations_are_refused() {
        let addrs = addrs(&[1, 1]);
        let mut odd = descriptor(1, 2, ShardRole::Writer);
        odd.epoch_duration = 7200;
        let err = refusal(
            &addrs,
            vec![vec![descriptor(0, 2, ShardRole::Writer)], vec![odd]],
        );
        assert!(
            err.contains(&format!(
                "{} uses epoch duration 7200 but shard 0 uses 3600",
                addrs[1][0]
            )),
            "{err}"
        );
    }

    #[test]
    fn a_set_without_a_writer_is_refused() {
        let addrs = addrs(&[2]);
        let err = refusal(
            &addrs,
            vec![vec![
                descriptor(0, 1, ShardRole::Replica),
                descriptor(0, 1, ShardRole::Replica),
            ]],
        );
        assert!(
            err.contains(&format!(
                "shard 0 replica set has no writer ({}=replica, {}=replica)",
                addrs[0][0], addrs[0][1]
            )),
            "{err}"
        );
    }

    #[test]
    fn a_set_with_two_writers_is_refused() {
        let addrs = addrs(&[1, 2]);
        let err = refusal(
            &addrs,
            vec![
                vec![descriptor(0, 2, ShardRole::Writer)],
                vec![
                    descriptor(1, 2, ShardRole::Writer),
                    descriptor(1, 2, ShardRole::Writer),
                ],
            ],
        );
        assert!(
            err.contains(&format!(
                "shard 1 replica set has 2 writers ({}=writer, {}=writer)",
                addrs[1][0], addrs[1][1]
            )),
            "{err}"
        );
        assert!(!err.contains("shard 0"), "{err}");
    }
}
