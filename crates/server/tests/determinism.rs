//! Determinism: sharded, batched, concurrently-submitted execution is
//! bit-identical to sequential execution — same sums, same stall
//! flags, same residue verdicts — for shard counts 1, 2, and 7.
//!
//! The argument this verifies: fault-free, a VLSA op's sum and stall
//! flag are pure functions of its operands (the detector is
//! conservative, so every delivered sum equals ground truth), which
//! makes the result independent of how requests interleave across
//! shards, batches, and threads.

use std::sync::mpsc::channel;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use vlsa_core::SpeculativeAdder;
use vlsa_pipeline::{
    adversarial_operands, biased_operands, random_operands, ResilienceConfig, ResilientPipeline,
    VlsaPipeline,
};
use vlsa_server::{
    AddBatch, Frame, OpResult, Response, ServerConfig, ShardConfig, ShardPool, VlsaClient,
    VlsaServer,
};

const NBITS: usize = 32;
const WINDOW: usize = 12;

/// A mixed workload: uniform, biased, and adversarial segments, so the
/// comparison covers clean ops, stalls, and stall runs.
fn mixed_stream(seed: u64, count: usize) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let third = count / 3;
    let mut ops = random_operands(NBITS, third, &mut rng);
    ops.extend(biased_operands(NBITS, third, 0.7, &mut rng));
    ops.extend(adversarial_operands(NBITS, count - 2 * third));
    ops
}

/// Sequential references: per-op (sum, stalled) from the plain
/// pipeline, and per-op exact-path verdicts + residue counters from a
/// sequential resilient run.
fn sequential_reference(ops: &[(u64, u64)]) -> (Vec<(u64, bool)>, Vec<bool>, u64) {
    let adder = SpeculativeAdder::new(NBITS, WINDOW).expect("valid adder");
    let mut plain = VlsaPipeline::new(adder);
    let mut samples = Vec::with_capacity(ops.len());
    plain.run_observed(ops, |s| samples.push((s.sum, s.stalled)));

    let mut resilient = ResilientPipeline::new(adder, ResilienceConfig::default());
    let batch = resilient.run_batch(ops);
    let exact_paths = batch.outcomes.iter().map(|o| o.exact_path).collect();
    (samples, exact_paths, batch.stats.residue_mismatches)
}

fn shard_config() -> ShardConfig {
    ShardConfig {
        nbits: NBITS,
        window: WINDOW,
        queue_capacity: 64,
        max_batch_ops: 256,
        ..ShardConfig::default()
    }
}

/// Splits the stream into uneven requests and submits them directly to
/// a pool (all outstanding at once, so batches coalesce), returning
/// per-op results flattened back into stream order.
fn run_through_pool(ops: &[(u64, u64)], shards: usize) -> Vec<OpResult> {
    let pool = ShardPool::start(&shard_config(), shards).expect("valid config");
    let chunks: Vec<&[(u64, u64)]> = ops.chunks(37).collect();
    let mut receivers = Vec::with_capacity(chunks.len());
    for (id, chunk) in chunks.iter().enumerate() {
        let (tx, rx) = channel();
        pool.submit(AddBatch::new(id as u64, NBITS as u8, chunk.to_vec()), tx)
            .expect("queue capacity covers all outstanding requests");
        receivers.push(rx);
    }
    let mut results = Vec::with_capacity(ops.len());
    for (id, rx) in receivers.into_iter().enumerate() {
        match rx.recv().expect("reply").frame {
            Frame::SumBatch(sums) => {
                assert_eq!(sums.request_id, id as u64);
                assert_eq!(usize::from(sums.shard), id % shards);
                results.extend(sums.results);
            }
            other => panic!("expected sums for request {id}, got {other:?}"),
        }
    }
    pool.shutdown();
    results
}

fn assert_bit_identical(ops: &[(u64, u64)], results: &[OpResult], label: &str) {
    let (samples, exact_paths, residue_mismatches) = sequential_reference(ops);
    assert_eq!(results.len(), samples.len(), "{label}: op count");
    for (i, (result, &(sum, stalled))) in results.iter().zip(&samples).enumerate() {
        assert_eq!(result.sum, sum, "{label}: sum of op {i}");
        assert_eq!(result.stalled(), stalled, "{label}: stall flag of op {i}");
        assert_eq!(
            result.exact_path(),
            exact_paths[i],
            "{label}: residue/exact verdict of op {i}"
        );
    }
    // Fault-free traffic: the residue check never fires sequentially,
    // and therefore must not fire sharded either (no exact-path ops).
    assert_eq!(residue_mismatches, 0, "{label}: sequential residue");
    assert_eq!(
        results.iter().filter(|r| r.exact_path()).count(),
        0,
        "{label}: sharded residue"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sharded_pools_match_sequential_execution(seed in any::<u64>()) {
        let ops = mixed_stream(seed, 999);
        for shards in [1usize, 2, 7] {
            let results = run_through_pool(&ops, shards);
            assert_bit_identical(&ops, &results, &format!("seed {seed}, {shards} shards"));
        }
    }
}

#[test]
fn full_server_with_concurrent_clients_matches_sequential_execution() {
    let ops = mixed_stream(0x5EED, 1_400);
    for shards in [1usize, 2, 7] {
        let mut server = VlsaServer::start(ServerConfig {
            shards,
            shard: shard_config(),
            ..ServerConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let chunks: Vec<Vec<(u64, u64)>> = ops.chunks(53).map(<[_]>::to_vec).collect();
        let clients = 4usize;
        // Each client thread owns the request ids congruent to its
        // index mod `clients`, so all requests are in flight from
        // several sockets at once and interleave across shards.
        let mut workers = Vec::new();
        for c in 0..clients {
            let my_chunks: Vec<(usize, Vec<(u64, u64)>)> = chunks
                .iter()
                .enumerate()
                .filter(|(id, _)| id % clients == c)
                .map(|(id, chunk)| (id, chunk.clone()))
                .collect();
            workers.push(std::thread::spawn(move || {
                let mut client = VlsaClient::connect(addr).expect("connect");
                let mut answers = Vec::new();
                for (id, chunk) in my_chunks {
                    // Capacity is sized so nominal load never sheds,
                    // but retry anyway: a Busy is a valid answer, and
                    // retrying must converge on the identical result.
                    loop {
                        match client
                            .request(id as u64, NBITS as u8, &chunk)
                            .expect("request")
                        {
                            Response::Sums(sums) => {
                                answers.push((id, sums.results));
                                break;
                            }
                            Response::Busy(_) => std::thread::yield_now(),
                            other => panic!("unexpected response: {other:?}"),
                        }
                    }
                }
                answers
            }));
        }
        let mut by_id: Vec<Option<Vec<OpResult>>> = vec![None; chunks.len()];
        for worker in workers {
            for (id, results) in worker.join().expect("client thread") {
                by_id[id] = Some(results);
            }
        }
        let results: Vec<OpResult> = by_id
            .into_iter()
            .flat_map(|r| r.expect("every request answered"))
            .collect();
        assert_bit_identical(&ops, &results, &format!("server, {shards} shards"));
        let totals = server.pool().totals();
        assert_eq!(totals.ops, ops.len() as u64);
        assert_eq!(
            server
                .stats()
                .protocol_errors
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
        server.shutdown();
    }
}
