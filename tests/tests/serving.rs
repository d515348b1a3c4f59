//! Multi-session serving determinism: the serving engine must never let
//! concurrency touch outputs.
//!
//! Three independent guarantees are locked here:
//!
//! 1. **Multiplexing is invisible.** N sessions advanced concurrently by a
//!    `SessionManager` over one pool produce traces bit-identical to N
//!    sequential single-session `CognitiveArm` runs — and bit-identical
//!    across pool sizes (CI runs this suite at `COGARM_THREADS=1` and
//!    `=4`).
//! 2. **Streaming is invisible.** A streaming session (wire → dejitter →
//!    filter → window → classify and actuate) reproduces the monolithic
//!    batch loop's label trace exactly, alone or in a micro-batch group
//!    beside batch sessions.
//! 3. **Parallel training is invisible.** `train_default_ensemble` fans
//!    its members out on the pool; a 1-thread pool and a 4-thread pool
//!    must train bit-identical ensembles.

use std::sync::Arc;

use cognitive_arm::eval::train_default_ensemble_with;
use cognitive_arm::eval::TrainBudget;
use cognitive_arm::pipeline::{CognitiveArm, PipelineConfig, SessionTrace, MAX_RUN_SECONDS};
use cognitive_arm::CoreError;
use eeg::types::Action;
use exec::ExecPool;
use integration_tests::{quick_data, quick_trained};
use ml::ensemble::{Classifier, Ensemble, Member, Voting};
use ml::models::CLASSES;
use serve::{ServeError, SessionManager, SessionSpec};
use stream::transport::TransportParams;

/// Subject seeds for the concurrent-session fleet. All sessions share one
/// trained ensemble (the deployment shape: one artifact, many users); the
/// subjects — boards, wire seeds, normalization targets — differ.
const SUBJECTS: [u64; 4] = [21, 22, 23, 24];

fn spec_for(subject: u64) -> SessionSpec {
    let artifacts = quick_trained(21, 21);
    SessionSpec::new(
        PipelineConfig::default(),
        artifacts.ensemble.clone(),
        subject,
    )
    .with_normalization(artifacts.data.zscores[0].clone())
    .with_action(Action::Right)
}

fn assert_identical(context: &str, a: &SessionTrace, b: &SessionTrace) {
    assert_eq!(a.labels.len(), b.labels.len(), "{context}: label counts");
    for (x, y) in a.labels.iter().zip(&b.labels) {
        assert!(
            x.t.to_bits() == y.t.to_bits() && x.label == y.label,
            "{context}: label diverged ({}, {}) vs ({}, {})",
            x.t,
            x.label,
            y.t,
            y.label
        );
    }
    assert_eq!(a.joints.len(), b.joints.len(), "{context}: joint counts");
    for (x, y) in a.joints.iter().zip(&b.joints) {
        assert!(
            x.0.to_bits() == y.0.to_bits()
                && x.1.to_bits() == y.1.to_bits()
                && x.2.to_bits() == y.2.to_bits()
                && x.3.to_bits() == y.3.to_bits(),
            "{context}: joints diverged {x:?} vs {y:?}"
        );
    }
}

/// Reference: each subject run alone, sequentially, through the monolithic
/// batch loop on a single-threaded pool.
fn sequential_reference(seconds: f64) -> Vec<SessionTrace> {
    let artifacts = quick_trained(21, 21);
    SUBJECTS
        .iter()
        .map(|&subject| {
            let mut arm = CognitiveArm::with_pool(
                PipelineConfig::default(),
                artifacts.ensemble.clone(),
                subject,
                Arc::new(ExecPool::new(1)),
            );
            arm.set_normalization(artifacts.data.zscores[0].clone());
            arm.set_subject_action(Action::Right);
            arm.run_for(seconds).expect("reference run")
        })
        .collect()
}

/// Whether the fleet's session `i` is admitted as a streaming session
/// (`true`) or a batch session.
type Roster = fn(usize) -> bool;

fn manager_traces(threads: usize, streams: Roster, seconds: f64) -> Vec<SessionTrace> {
    let mut manager = SessionManager::new(Arc::new(ExecPool::new(threads)));
    for (i, &subject) in SUBJECTS.iter().enumerate() {
        if streams(i) {
            manager
                .add_streaming_session(spec_for(subject))
                .expect("admit streaming session");
        } else {
            manager.add_session(spec_for(subject)).expect("admit session");
        }
    }
    // Both shapes join one group and share its batched call.
    assert_eq!(
        manager.group_sizes(),
        vec![SUBJECTS.len()],
        "threads={threads}"
    );
    manager.run_for(seconds).expect("manager run")
}

#[test]
fn concurrent_batch_sessions_match_sequential_runs_bitwise() {
    let reference = sequential_reference(2.0);
    assert!(
        reference.iter().all(|t| !t.labels.is_empty()),
        "reference produced no labels"
    );
    for threads in [1, 4] {
        let concurrent = manager_traces(threads, |_| false, 2.0);
        for (i, (a, b)) in reference.iter().zip(&concurrent).enumerate() {
            assert_identical(&format!("batch threads={threads} session={i}"), a, b);
        }
    }
}

#[test]
fn streaming_sessions_match_the_monolithic_loop_bitwise() {
    // The strongest equivalence in the serving layer: wire transport and
    // dejitter must be label-invisible, for a streaming-only fleet and for
    // a roster that alternates batch and streaming admissions, so both
    // session shapes share one micro-batch group.
    let reference = sequential_reference(2.0);
    let rosters: [(&str, Roster); 2] = [("streaming", |_| true), ("mixed", |i| i % 2 == 1)];
    for (roster, streams) in rosters {
        for threads in [1, 4] {
            let served = manager_traces(threads, streams, 2.0);
            for (i, (a, b)) in reference.iter().zip(&served).enumerate() {
                assert_identical(&format!("{roster} threads={threads} session={i}"), a, b);
            }
        }
    }
}

#[test]
fn sixteen_session_micro_batch_matches_sequential_bitwise() {
    // The cross-session micro-batcher's core promise: sixteen sessions
    // sharing one artifact are classified in ONE batched ensemble call
    // per tick, and every trace is bit-identical to running that subject
    // alone — at 1 and 4 threads.
    let artifacts = quick_trained(21, 21);
    let subjects: Vec<u64> = (40..56).collect();
    let solo: Vec<SessionTrace> = subjects
        .iter()
        .map(|&subject| {
            let mut arm = CognitiveArm::with_pool(
                PipelineConfig::default(),
                artifacts.ensemble.clone(),
                subject,
                Arc::new(ExecPool::new(1)),
            );
            arm.set_normalization(artifacts.data.zscores[0].clone());
            arm.set_subject_action(Action::Right);
            arm.run_for(1.5).expect("solo run")
        })
        .collect();
    assert!(solo.iter().all(|t| !t.labels.is_empty()));

    for threads in [1, 4] {
        let mut manager = SessionManager::new(Arc::new(ExecPool::new(threads)));
        for &subject in &subjects {
            let spec = SessionSpec::new(
                PipelineConfig::default(),
                artifacts.ensemble.clone(),
                subject,
            )
            .with_normalization(artifacts.data.zscores[0].clone())
            .with_action(Action::Right);
            manager.add_session(spec).expect("admit");
        }
        // All sixteen landed in one micro-batch group.
        assert_eq!(manager.group_sizes(), vec![16], "threads={threads}");
        let batched = manager.run_for(1.5).expect("batched run");
        for (i, (a, b)) in solo.iter().zip(&batched).enumerate() {
            assert_identical(&format!("micro-batch threads={threads} session={i}"), a, b);
        }
    }
}

#[test]
fn adversarial_wire_streaming_matches_the_monolithic_loop_bitwise() {
    // Burst jitter far above the sample cadence, 5% loss with
    // retransmission, heavy reordering: the pooled wire must deliver a
    // label trace bit-identical to the wire-free monolithic loop (the
    // allocating reference path), because the dejitter ring restores
    // sequence order no matter how packets arrive. Served together through
    // a manager, a window whose boundary sample arrives a period late
    // joins a later batched call, and the traces must not notice.
    let adversarial = TransportParams {
        base_latency: 0.004,
        jitter: 0.050, // > 6 sample periods of reorder
        loss_prob: 0.05,
        retransmit: true,
        timestamps: true,
        overhead_bytes: 66,
    };
    let reference = sequential_reference(3.0);
    for threads in [1usize, 4] {
        let pool = Arc::new(ExecPool::new(threads));
        for (i, &subject) in SUBJECTS.iter().enumerate() {
            let spec = spec_for(subject).with_wire(adversarial);
            let mut session = spec
                .into_session(Arc::clone(&pool))
                .expect("session assembles");
            let trace = session.run_for(3.0).expect("adversarial run");
            assert_identical(
                &format!("adversarial threads={threads} session={i}"),
                &reference[i],
                &trace,
            );
            assert!(
                session.out_of_order() > 0,
                "wire never reordered — the adversarial path went untested"
            );
        }
        let mut manager = SessionManager::new(Arc::clone(&pool));
        for &subject in &SUBJECTS {
            let spec = spec_for(subject).with_wire(adversarial);
            manager.add_streaming_session(spec).expect("admit");
        }
        let served = manager.run_for(3.0).expect("adversarial fleet");
        for (i, (a, b)) in reference.iter().zip(&served).enumerate() {
            assert_identical(
                &format!("adversarial fleet threads={threads} session={i}"),
                a,
                b,
            );
        }
    }
}

#[test]
fn silently_lossy_wires_are_rejected_at_admission() {
    // A lossy wire without retransmission would park the dejitter cursor
    // on the first dropped sequence number forever; admission must refuse
    // it with a typed error instead.
    let mut manager = SessionManager::new(Arc::new(ExecPool::new(1)));
    let spec = spec_for(21).with_wire(TransportParams::udp());
    assert!(
        manager.add_streaming_session(spec).is_err(),
        "silently lossy wire must be refused"
    );
    // Lossless non-retransmitting wires are fine.
    let mut quiet = TransportParams::udp();
    quiet.loss_prob = 0.0;
    let spec = spec_for(21).with_wire(quiet);
    assert!(manager.add_streaming_session(spec).is_ok());
}

#[test]
fn session_churn_keeps_survivors_bitwise_identical() {
    // Connect/disconnect churn: sessions leave mid-flight, the group
    // re-batches around the survivors (row-count invariance makes the
    // shrinking batch invisible), ids stay stable, and every survivor's
    // concatenated trace is bit-identical to running that subject alone.
    //
    // Segment lengths are whole label periods (1.024 s = 128 samples =
    // 16 ticks of 8) so the segmented tick grid lines up with the
    // continuous reference — a partial trailing chunk would legitimately
    // emit an extra boundary label.
    let solo = sequential_reference(2.048);

    for threads in [1usize, 4] {
        let mut manager = SessionManager::new(Arc::new(ExecPool::new(threads)));
        let ids: Vec<_> = SUBJECTS
            .iter()
            .map(|&subject| manager.add_session(spec_for(subject)).expect("admit"))
            .collect();
        assert_eq!(manager.len(), 4);

        // Segment 1: everyone runs.
        let first = manager.run_for(1.024).expect("segment 1");

        // Subject 22 (index 1) disconnects.
        manager.remove_session(ids[1]).expect("remove");
        assert_eq!(manager.len(), 3);
        assert!(
            manager.remove_session(ids[1]).is_err(),
            "double remove must refuse"
        );
        assert!(manager.set_action(ids[1], Action::Idle).is_err());
        assert_eq!(
            manager.session_ids(),
            vec![ids[0], ids[2], ids[3]],
            "survivor ids in admission order"
        );

        // Segment 2: survivors continue from their segment-1 state.
        let second = manager.run_for(1.024).expect("segment 2");
        assert_eq!(second.len(), 3);

        let survivors = [0usize, 2, 3];
        for (k, &i) in survivors.iter().enumerate() {
            let mut joined = first[i].clone();
            joined.labels.extend(second[k].labels.iter().copied());
            joined.joints.extend(second[k].joints.iter().copied());
            assert_identical(
                &format!("churn threads={threads} subject={}", SUBJECTS[i]),
                &solo[i],
                &joined,
            );
        }

        // Reconnects are fresh sessions with fresh ids, and a streaming
        // reconnect joins the survivors' group.
        let re = manager
            .add_streaming_session(spec_for(22))
            .expect("re-admit");
        assert_ne!(re, ids[1]);
        assert_eq!(manager.len(), 4);
        assert_eq!(manager.group_sizes(), vec![4]);
    }
}

#[test]
fn mixed_artifacts_form_separate_groups_and_stay_bitwise_correct() {
    // Two different trained ensembles: admission must separate them into
    // two groups (a batched call can only run one model) whichever the
    // session shape, and every trace must still match its solo reference.
    let a = quick_trained(21, 21);
    let b = quick_trained(22, 22);
    let sessions: Vec<(u64, &std::sync::Arc<integration_tests::QuickArtifacts>)> =
        vec![(60, &a), (61, &b), (62, &a), (63, &b), (64, &a)];

    let solo: Vec<SessionTrace> = sessions
        .iter()
        .map(|&(subject, artifacts)| {
            let mut arm = CognitiveArm::with_pool(
                PipelineConfig::default(),
                artifacts.ensemble.clone(),
                subject,
                Arc::new(ExecPool::new(1)),
            );
            arm.set_normalization(artifacts.data.zscores[0].clone());
            arm.set_subject_action(Action::Left);
            arm.run_for(1.5).expect("solo run")
        })
        .collect();

    let mut manager = SessionManager::new(Arc::new(ExecPool::new(2)));
    for &(subject, artifacts) in &sessions {
        let spec = SessionSpec::new(
            PipelineConfig::default(),
            artifacts.ensemble.clone(),
            subject,
        )
        .with_normalization(artifacts.data.zscores[0].clone())
        .with_action(Action::Left);
        if subject < 63 {
            manager.add_session(spec).expect("admit");
        } else {
            manager.add_streaming_session(spec).expect("admit");
        }
    }
    assert_eq!(manager.group_sizes(), vec![3, 2], "grouping by artifact");
    let batched = manager.run_for(1.5).expect("mixed run");
    for (i, (x, y)) in solo.iter().zip(&batched).enumerate() {
        assert_identical(&format!("mixed-group session={i}"), x, y);
    }
}

#[test]
fn sessions_keep_state_across_segments() {
    // Serving is segmented (one run_for per scheduling quantum); two
    // managers driven through the same segment schedule must agree, and a
    // second segment must continue — not restart — the first.
    let run_segments = |threads: usize| -> Vec<SessionTrace> {
        let mut manager = SessionManager::new(Arc::new(ExecPool::new(threads)));
        for &subject in &SUBJECTS[..2] {
            manager
                .add_streaming_session(spec_for(subject))
                .expect("admit");
        }
        let first = manager.run_for(1.0).expect("segment 1");
        let second = manager.run_for(1.0).expect("segment 2");
        first
            .into_iter()
            .zip(second)
            .map(|(mut a, b)| {
                a.labels.extend(b.labels);
                a.joints.extend(b.joints);
                a
            })
            .collect()
    };
    let a = run_segments(1);
    let b = run_segments(4);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_identical(&format!("segmented session={i}"), x, y);
        // Second-segment timestamps continue past the first segment.
        assert!(
            x.labels.last().expect("labels").t > 1.0,
            "session {i} restarted instead of continuing"
        );
    }
}

#[test]
fn parallel_ensemble_training_is_bit_identical_to_serial() {
    let data = quick_data(11);
    let serial =
        train_default_ensemble_with(&data, &TrainBudget::quick(), 3, &ExecPool::new(1))
            .expect("serial training");
    let parallel =
        train_default_ensemble_with(&data, &TrainBudget::quick(), 3, &ExecPool::new(4))
            .expect("parallel training");
    // Ensemble PartialEq is structural: every weight, every tree node.
    assert_eq!(serial, parallel, "members diverged across pool sizes");
}

#[test]
fn manager_rejects_degenerate_requests() {
    let mut manager = SessionManager::new(Arc::new(ExecPool::new(2)));
    assert!(manager.run_for(1.0).is_err(), "empty manager must refuse");
    let id = manager.add_session(spec_for(21)).expect("admit");
    let mut standalone = spec_for(21)
        .into_session(Arc::new(ExecPool::new(1)))
        .expect("session assembles");
    // A NaN duration would run nothing and return empty traces; an
    // infinite or huge one would overflow the trace reservation (and the
    // manager would loop over `usize::MAX` samples).
    let past_cap = MAX_RUN_SECONDS * (1.0 + f64::EPSILON);
    for seconds in [0.0, f64::NAN, f64::INFINITY, 1e300, past_cap] {
        assert!(
            matches!(manager.run_for(seconds), Err(ServeError::BadRequest(_))),
            "{seconds} s: the manager must refuse"
        );
        assert!(
            matches!(standalone.run_for(seconds), Err(CoreError::BadConfig(_))),
            "{seconds} s: a standalone session must refuse"
        );
    }
    assert!(manager.set_action(id, Action::Idle).is_ok());
    let mut zero_cadence = spec_for(21);
    zero_cadence.config.label_every = 0;
    // A normalization fitted on too few channels would index past its
    // statistics in the filter; a negative rate limit would panic in the
    // safety gate's clamp, and a NaN one would switch the limit off.
    let narrow = spec_for(21).with_normalization(
        dsp::normalize::Zscore::from_parts(vec![0.0; 4], vec![1.0; 4]).expect("valid stats"),
    );
    let mut negative_step = spec_for(21);
    negative_step.config.safety.max_step = -1.0;
    let mut nan_step = spec_for(21);
    nan_step.config.safety.max_step = f64::NAN;
    // Wires the transport would panic on in the first advance (a loss
    // probability outside [0, 1] or a jitter range it cannot sample) or
    // never deliver over (a NaN latency).
    let wire = |tweak: fn(&mut TransportParams)| {
        let mut params = TransportParams::lsl();
        tweak(&mut params);
        spec_for(21).with_wire(params)
    };
    for (name, bad) in [
        ("zero label_every", zero_cadence),
        ("4-channel normalization", narrow),
        ("negative max_step", negative_step),
        ("NaN max_step", nan_step),
        ("loss_prob 2", wire(|w| w.loss_prob = 2.0)),
        ("loss_prob -0.5", wire(|w| w.loss_prob = -0.5)),
        ("NaN loss_prob", wire(|w| w.loss_prob = f64::NAN)),
        ("negative jitter", wire(|w| w.jitter = -1.0)),
        ("NaN jitter", wire(|w| w.jitter = f64::NAN)),
        ("NaN base_latency", wire(|w| w.base_latency = f64::NAN)),
        ("negative base_latency", wire(|w| w.base_latency = -0.004)),
        (
            "infinite base_latency",
            wire(|w| w.base_latency = f64::INFINITY),
        ),
    ] {
        assert!(bad.validate().is_err(), "{name}: validate must refuse");
        assert!(
            matches!(
                bad.clone().into_session(Arc::new(ExecPool::new(1))),
                Err(ServeError::BadRequest(_))
            ),
            "{name}: a standalone session must refuse"
        );
        assert!(
            matches!(
                manager.add_session(bad.clone()),
                Err(ServeError::BadRequest(_))
            ),
            "{name}: batch admission must refuse"
        );
        assert!(
            matches!(
                manager.add_streaming_session(bad),
                Err(ServeError::BadRequest(_))
            ),
            "{name}: streaming admission must refuse"
        );
    }
    assert_eq!(manager.len(), 1, "refused specs leave no session");
    assert_eq!(
        manager.group_sizes(),
        vec![1],
        "refused specs leave no group"
    );
}

#[test]
fn run_for_each_matches_run_for_on_healthy_fleets() {
    let traces = {
        let mut manager = SessionManager::new(Arc::new(ExecPool::new(2)));
        for &subject in &SUBJECTS[..2] {
            manager.add_session(spec_for(subject)).expect("admit");
        }
        manager.run_for(1.0).expect("run_for")
    };
    let mut manager = SessionManager::new(Arc::new(ExecPool::new(2)));
    let ids: Vec<_> = SUBJECTS[..2]
        .iter()
        .map(|&subject| manager.add_session(spec_for(subject)).expect("admit"))
        .collect();
    let each = manager.run_for_each(1.0).expect("run_for_each");
    assert_eq!(each.len(), traces.len());
    for (i, (granular, flat)) in each.iter().zip(&traces).enumerate() {
        let granular = granular.as_ref().expect("healthy session");
        assert_identical(&format!("run_for_each session={i}"), granular, flat);
    }
    for id in ids {
        assert!(!manager.is_poisoned(id).expect("known id"));
    }
}

/// A member whose probabilities went NaN.
#[derive(Clone)]
struct NanVote {
    window: usize,
}

impl Classifier for NanVote {
    fn predict_proba_window(&self, _: &[f32], _: usize, _: usize) -> Vec<f32> {
        vec![f32::NAN; CLASSES]
    }

    fn window(&self) -> usize {
        self.window
    }

    fn name(&self) -> String {
        "nan".into()
    }

    fn param_count(&self) -> usize {
        0
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[test]
fn a_nan_vote_stays_in_its_own_session() {
    // One batch session's only member votes NaN, beside a healthy batch
    // session. The tick must return rather than panic, the healthy trace
    // must equal its solo run, and the faulty session labels every window
    // with the last class (Idle), the total argmax's all-NaN answer.
    let artifacts = quick_trained(21, 21);
    let solo = &sequential_reference(2.0)[0];
    let nan = Ensemble::new(
        vec![Member::Custom(Box::new(NanVote {
            window: artifacts.ensemble.window(),
        }))],
        Voting::Soft,
    );
    for threads in [1usize, 4] {
        let mut manager = SessionManager::new(Arc::new(ExecPool::new(threads)));
        let spec = SessionSpec::new(PipelineConfig::default(), nan.clone(), 99)
            .with_normalization(artifacts.data.zscores[0].clone())
            .with_action(Action::Right);
        manager.add_session(spec).expect("admit the faulty session");
        manager.add_session(spec_for(SUBJECTS[0])).expect("admit");
        let each = manager.run_for_each(2.0).expect("the tick returns");
        let faulty = each[0]
            .as_ref()
            .expect("a NaN vote is a label, not an error");
        assert!(!faulty.labels.is_empty(), "the faulty session classified");
        assert!(
            faulty.labels.iter().all(|l| l.label == CLASSES - 1),
            "threads={threads}: an all-NaN vote labels the last class"
        );
        let healthy = each[1].as_ref().expect("healthy session");
        assert_identical(
            &format!("beside a NaN vote threads={threads}"),
            solo,
            healthy,
        );
    }
}

/// A member that panics on every window.
#[derive(Clone)]
struct Panics {
    window: usize,
}

impl Classifier for Panics {
    fn predict_proba_window(&self, _: &[f32], _: usize, _: usize) -> Vec<f32> {
        panic!("member exploded");
    }

    fn window(&self) -> usize {
        self.window
    }

    fn name(&self) -> String {
        "panics".into()
    }

    fn param_count(&self) -> usize {
        0
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[test]
fn a_panicking_member_poisons_only_its_own_sessions() {
    // A batch session and a streaming session whose only member panics,
    // beside a healthy batch session. The call must return, the faulty
    // sessions must fail with their panics and stay poisoned, and the
    // healthy session must keep serving its solo trace. (A member whose
    // advance panics is covered by serve's own unit tests: admission
    // refuses every wire known to panic there.) Segments are whole label
    // periods (1.024 s = 128 samples), so two segments line up with one
    // continuous solo run. Standalone sessions of the same ensemble, with
    // and without a wire, must fail the same way on their own.
    let artifacts = quick_trained(21, 21);
    let solo = &sequential_reference(2.048)[0];
    let panicking = Ensemble::new(
        vec![Member::Custom(Box::new(Panics {
            window: artifacts.ensemble.window(),
        }))],
        Voting::Soft,
    );
    let faulty = |subject: u64| {
        SessionSpec::new(PipelineConfig::default(), panicking.clone(), subject)
            .with_normalization(artifacts.data.zscores[0].clone())
            .with_action(Action::Right)
    };
    for threads in [1usize, 4] {
        let mut manager = SessionManager::new(Arc::new(ExecPool::new(threads)));
        let batch = manager.add_session(faulty(98)).expect("admit");
        let streaming = manager.add_streaming_session(faulty(99)).expect("admit");
        let healthy = manager.add_session(spec_for(SUBJECTS[0])).expect("admit");
        assert_eq!(manager.group_sizes(), vec![1, 1, 1]);

        let first = manager.run_for_each(1.024).expect("the call returns");
        for (i, id) in [batch, streaming].into_iter().enumerate() {
            assert!(
                matches!(&first[i], Err(ServeError::Panicked(msg)) if msg == "member exploded"),
                "threads={threads} session={i}: {:?}",
                first[i].as_ref().err()
            );
            assert!(manager.is_poisoned(id).expect("known id"));
        }
        assert!(!manager.is_poisoned(healthy).expect("known id"));

        let second = manager
            .run_for_each(1.024)
            .expect("the second call returns");
        assert!(
            second[0].is_err() && second[1].is_err(),
            "poisoned sessions stay out"
        );
        let mut joined = first[2].as_ref().expect("healthy session").clone();
        let tail = second[2].as_ref().expect("healthy session still serves");
        joined.labels.extend(tail.labels.iter().copied());
        joined.joints.extend(tail.joints.iter().copied());
        assert_identical(
            &format!("beside a panicking member threads={threads}"),
            solo,
            &joined,
        );

        let pool = Arc::new(ExecPool::new(threads));
        let mut direct = CognitiveArm::with_pool(
            PipelineConfig::default(),
            panicking.clone(),
            97,
            Arc::clone(&pool),
        );
        direct.set_normalization(artifacts.data.zscores[0].clone());
        direct.set_subject_action(Action::Right);
        let wired = faulty(96).into_session(pool).expect("session assembles");
        for (shape, mut session) in [("no wire", direct), ("wire", wired)] {
            let outcome = session.run_for(1.024);
            assert!(
                matches!(&outcome, Err(CoreError::Panicked(msg)) if msg == "member exploded"),
                "threads={threads} standalone {shape}: {:?}",
                outcome.err()
            );
            assert!(session.is_poisoned(), "standalone {shape} stays poisoned");
            assert!(
                session.run_for(1.024).is_err(),
                "standalone {shape}: a poisoned session refuses to run"
            );
        }
    }
}

#[test]
fn streaming_sessions_report_stage_latency() {
    let artifacts = quick_trained(21, 21);
    let spec = SessionSpec::new(
        PipelineConfig::default(),
        artifacts.ensemble.clone(),
        SUBJECTS[0],
    )
    .with_normalization(artifacts.data.zscores[0].clone());
    let mut session = spec
        .into_session(Arc::new(ExecPool::new(2)))
        .expect("session assembles");
    let trace = session.run_for(2.0).expect("runs");
    let lat = session.latency();
    assert_eq!(lat.inference.count as usize, trace.labels.len());
    assert!(lat.inference.mean_s() > 0.0);
    assert!(lat.filter.count > 0, "filter stage never timed");
    assert!(lat.filter.mean_s() > 0.0);
}

#[test]
fn streaming_wire_reordering_is_label_invisible() {
    // The LSL-role transport retransmits ~1% of packets with extra latency,
    // so the inlet does see out-of-order arrivals on a long enough run;
    // the dejitter buffer must hide all of it (labels already checked
    // above — here we confirm the wire was actually adversarial).
    let artifacts = quick_trained(21, 21);
    let spec = SessionSpec::new(
        PipelineConfig::default(),
        artifacts.ensemble.clone(),
        SUBJECTS[0],
    )
    .with_normalization(artifacts.data.zscores[0].clone());
    let mut session = spec
        .into_session(Arc::new(ExecPool::new(2)))
        .expect("session assembles");
    let trace = session.run_for(4.0).expect("runs");
    assert!(!trace.labels.is_empty());
    assert!(
        session.out_of_order() > 0,
        "wire never reordered — the dejitter path went untested \
         (out_of_order = {})",
        session.out_of_order()
    );
}

/// The artifact registry's contract: one interned `WeightImage` per
/// distinct artifact no matter how many times — or through which format
/// version — it is opened, and sessions admitted through the shared
/// image trace bit-identically to sessions built from their own
/// privately loaded image, at 1 and 4 threads.
#[test]
fn interned_artifact_sessions_match_eager_sessions_bitwise() {
    let artifacts = quick_trained(21, 21);
    let dir = std::env::temp_dir().join(format!("serve-intern-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let v2 = dir.join("artifact.cogm");
    let v1 = dir.join("artifact-v1.cogm");
    let saved = model_io::SavedModel {
        pipeline: PipelineConfig::default(),
        ensemble: artifacts.ensemble.clone(),
        normalization: Some(artifacts.data.zscores[0].clone()),
    };
    saved.save(&v2).expect("saves v2");
    saved
        .to_container()
        .expect("persistable")
        .save_v1(&v1)
        .expect("saves v1");

    for threads in [1usize, 4] {
        // Shared path: every session reads through one interned image.
        let mut manager = SessionManager::new(Arc::new(ExecPool::new(threads)));
        let artifact = manager.open_artifact(&v2).expect("artifact interns");
        // Re-opens dedup — same path, and the same model saved in the
        // legacy format (content hashes agree post-upgrade).
        assert_eq!(manager.open_artifact(&v2).expect("reopen"), artifact);
        assert_eq!(manager.open_artifact(&v1).expect("v1 open"), artifact);
        assert_eq!(manager.artifact_count(), 1, "dedup failed");
        for &subject in &SUBJECTS {
            manager
                .add_session_from_artifact(artifact, subject)
                .expect("admits from artifact");
        }
        let shared = manager.run_for(2.0).expect("shared-image fleet runs");

        // Private path: each session decodes its own image from disk.
        let mut manager = SessionManager::new(Arc::new(ExecPool::new(threads)));
        for &subject in &SUBJECTS {
            let model = model_io::SavedModel::load(&v2).expect("loads");
            manager
                .add_session(SessionSpec::from_saved(model, subject))
                .expect("admits eager");
        }
        let eager = manager.run_for(2.0).expect("eager fleet runs");

        assert!(shared.iter().all(|t| !t.labels.is_empty()), "no labels");
        for (i, (a, b)) in eager.iter().zip(&shared).enumerate() {
            assert_identical(&format!("interned threads={threads} session={i}"), a, b);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// CI hook: when `COGARM_MODEL` points at an artifact saved by another
/// process — any format version; v1 takes the in-memory upgrade — intern
/// it through the mmap-backed registry and prove a fleet serves it with
/// identical traces at 1 and 4 worker threads.
#[test]
fn env_model_artifact_serves_through_the_interned_image() {
    let Some(path) = std::env::var_os("COGARM_MODEL") else {
        return; // not running under the CI v1-upgrade step
    };
    let run = |threads: usize| -> Vec<SessionTrace> {
        let mut manager = SessionManager::new(Arc::new(ExecPool::new(threads)));
        let artifact = manager.open_artifact(&path).expect("COGARM_MODEL interns");
        for &subject in &SUBJECTS {
            manager
                .add_session_from_artifact(artifact, subject)
                .expect("admits from artifact");
        }
        manager.run_for(2.0).expect("fleet runs")
    };
    let single = run(1);
    assert!(
        single.iter().all(|t| !t.labels.is_empty()),
        "env artifact fleet emitted no labels"
    );
    let quad = run(4);
    for (i, (a, b)) in single.iter().zip(&quad).enumerate() {
        assert_identical(&format!("env artifact session={i}"), a, b);
    }
}
