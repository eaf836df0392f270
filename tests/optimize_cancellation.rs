//! A cancellation token that fires part-way through a placement search
//! stops it with `MathError::Cancelled`, for every engine.
//!
//! Each test runs a search once to put every co-run set in the memo
//! cache, so no solver runs afterwards and every poll comes from the
//! search's own loops. It then counts how often a search on that model
//! polls its token (a token that never fires but counts), and reruns
//! the search with a token that fires after 10 %, 50 % and 90 % of those
//! polls. Every rerun must fail with the typed cancellation error, so
//! the staging and scoring loops poll from the first placement to the
//! last.

use mpmc::math::sync::CancelToken;
use mpmc::math::MathError;
use mpmc::model::assignment::CombinedModel;
use mpmc::model::optimize::{self, Objective, OptimizeOptions, Optimized, SearchMethod};
use mpmc::model::power::PowerModel;
use mpmc::model::profile::ProcessProfile;
use mpmc::model::ModelError;
use mpmc::sim::machine::MachineConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn instance() -> (MachineConfig, PowerModel, Vec<ProcessProfile>) {
    let machine = MachineConfig::four_core_server();
    let power = bench::synthetic_power_model(&machine, 64);
    let profiles = (0..6)
        .map(|i| {
            bench::synthetic_profile(
                &format!("c{i}"),
                &machine,
                0.06 + 0.07 * i as f64,
                0.004 + 0.006 * (i % 4) as f64,
            )
        })
        .collect();
    (machine, power, profiles)
}

/// A token that fires once it has been polled more than `after` times,
/// and the shared poll counter.
fn firing_after(after: u64) -> (CancelToken, Arc<AtomicU64>) {
    let polls = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&polls);
    let token = CancelToken::from_fn(move || seen.fetch_add(1, Ordering::Relaxed) >= after);
    (token, polls)
}

/// Warms a model with `search`, counts the polls of a search on it, then
/// reruns with tokens firing at 10 %, 50 % and 90 % of them; each rerun
/// must report cancellation.
fn assert_cancels_mid_search(
    what: &str,
    search: impl Fn(&CombinedModel<'_, PowerModel>, &CancelToken) -> Result<Optimized, ModelError>,
) -> Optimized {
    let (machine, power, _) = instance();
    let model = CombinedModel::new(&machine, &power);
    search(&model, &CancelToken::never())
        .unwrap_or_else(|e| panic!("{what}: uncancelled search failed: {e}"));
    let (counting, polls) = firing_after(u64::MAX);
    let done =
        search(&model, &counting).unwrap_or_else(|e| panic!("{what}: warm search failed: {e}"));
    let total = polls.load(Ordering::Relaxed);
    assert!(total >= 100, "{what}: a search should poll its token throughout, got {total} polls");
    for percent in [10, 50, 90] {
        let (token, _) = firing_after(total * percent / 100);
        let err = search(&model, &token).expect_err("a token that fires mid-search must stop it");
        assert!(
            matches!(err, ModelError::Math(MathError::Cancelled)),
            "{what} at {percent}% of its polls: want typed cancellation, got {err:?}"
        );
    }
    done
}

#[test]
fn exact_search_cancels_mid_search() {
    let (_, _, profiles) = instance();
    let opts = OptimizeOptions { workers: 1, ..OptimizeOptions::default() };
    for objective in [Objective::MinPower, Objective::MinMakespan] {
        let done = assert_cancels_mid_search("exact", |model, cancel| {
            optimize::optimize(model, &profiles, &[0, 1, 2, 3, 4, 5], objective, &opts, cancel)
        });
        assert_eq!(done.method, SearchMethod::Exact);
    }
}

#[test]
fn local_search_cancels_mid_search() {
    let (_, _, profiles) = instance();
    let opts =
        OptimizeOptions { workers: 1, exhaustive_leaf_limit: 0, ..OptimizeOptions::default() };
    let done = assert_cancels_mid_search("local search", |model, cancel| {
        let procs = [0, 1, 2, 3, 4, 5, 0, 3];
        optimize::optimize(model, &profiles, &procs, Objective::MinPower, &opts, cancel)
    });
    assert_eq!(done.method, SearchMethod::LocalSearch);
}

#[test]
fn brute_force_cancels_mid_search() {
    let (_, _, profiles) = instance();
    assert_cancels_mid_search("brute force", |model, cancel| {
        optimize::brute_force(model, &profiles, &[0, 1, 2, 3, 4], Objective::MinPower, cancel)
    });
}

#[test]
fn pre_fired_token_cancels_every_engine() {
    let (machine, power, profiles) = instance();
    let model = CombinedModel::new(&machine, &power);
    let fired = CancelToken::from_fn(|| true);
    let procs = [0, 1, 2, 3];
    let exact = OptimizeOptions::default();
    let local = OptimizeOptions { exhaustive_leaf_limit: 0, ..OptimizeOptions::default() };
    for result in [
        optimize::optimize(&model, &profiles, &procs, Objective::MinPower, &exact, &fired),
        optimize::optimize(&model, &profiles, &procs, Objective::MinPower, &local, &fired),
        optimize::brute_force(&model, &profiles, &procs, Objective::MinPower, &fired),
    ] {
        assert!(matches!(result, Err(ModelError::Math(MathError::Cancelled))), "{result:?}");
    }
}
