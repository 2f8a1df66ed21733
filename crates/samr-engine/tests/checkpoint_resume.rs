//! Checkpoint/resume: the physics must continue exactly across a restart.

use base::json::{FromJson, Json};
use samr_engine::{AppKind, Checkpoint, Driver, RunConfig, Scheme};
use topology::presets;

fn cfg(steps: usize) -> RunConfig {
    let mut c = RunConfig::new(AppKind::ShockPool3D, 16, steps, Scheme::Static);
    c.max_levels = 3;
    c
}

/// Hash-like fingerprint of the solution state.
fn solution_fingerprint(d: &Driver) -> (usize, i64, u64) {
    let h = d.hierarchy();
    let mut bits: u64 = 0;
    let mut cells = 0;
    for p in h.iter() {
        cells += p.cells();
        for f in &p.fields {
            for c in p.region.iter_cells() {
                bits ^= f.get(c).to_bits().rotate_left((c.x % 63) as u32);
            }
        }
    }
    (h.num_patches(), cells, bits)
}

#[test]
fn resume_continues_exactly() {
    let sys = presets::single_origin2000(2);
    // reference: run 4 steps straight through
    let mut straight = Driver::new(sys.clone(), cfg(4));
    for _ in 0..4 {
        straight.step_once();
    }

    // checkpointed: 2 steps, save, resume, 2 more
    let mut first = Driver::new(sys.clone(), cfg(4));
    first.step_once();
    first.step_once();
    let ckpt = first.checkpoint();
    let json = ckpt.to_json().unwrap();
    let restored = Checkpoint::from_json(&json).unwrap();
    let mut second = Driver::resume(sys, cfg(4), &restored).unwrap();
    second.step_once();
    second.step_once();

    assert_eq!(
        solution_fingerprint(&straight),
        solution_fingerprint(&second),
        "resumed run must reproduce the straight run's solution exactly"
    );
    assert_eq!(
        straight.cell_updates_so_far(),
        second.cell_updates_so_far()
    );
}

#[test]
fn resume_onto_a_different_system() {
    // physics state carries over even when the machine changes (e.g. a
    // restart onto the distributed system)
    let smp = presets::single_origin2000(2);
    let mut first = Driver::new(smp, cfg(4));
    first.step_once();
    let ckpt = first.checkpoint();

    let wan = presets::anl_ncsa_wan(2, 2, 7);
    let mut resumed = Driver::resume(wan, cfg(4), &ckpt).unwrap();
    // hierarchy intact and stepping works
    assert!(resumed.hierarchy().check_invariants().is_ok());
    let before = resumed.hierarchy().level_cells(0);
    resumed.step_once();
    assert_eq!(resumed.hierarchy().level_cells(0), before);
    assert!(resumed.sim().elapsed() > topology::SimTime::ZERO);
}

#[test]
fn checkpoint_roundtrips_through_json() {
    let sys = presets::anl_lan_pair(1, 1, 3);
    let mut c = RunConfig::new(AppKind::Amr64, 16, 2, Scheme::distributed_default());
    c.max_levels = 3;
    let mut d = Driver::new(sys, c);
    d.step_once();
    let ckpt = d.checkpoint();
    let back = Checkpoint::from_json(&ckpt.to_json().unwrap()).unwrap();
    assert_eq!(back.particles.len(), ckpt.particles.len());
    assert_eq!(back.step_count, ckpt.step_count);
    assert_eq!(back.cell_updates, ckpt.cell_updates);
    assert_eq!(back.hierarchy.patches.len(), ckpt.hierarchy.patches.len());
}

/// The value at `path` (object keys and array indices) of `doc`.
fn at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
    path.iter().fold(doc, |v, step| match v {
        Json::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == step).unwrap().1,
        Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
        other => panic!("no {step} in {other:?}"),
    })
}

/// A checkpoint file comes from outside the program: whatever is wrong
/// with it is reported as a typed error naming the offending value, never a
/// panic and never a silently substituted default.
#[test]
fn damaged_checkpoint_documents_are_errors_with_a_path() {
    let mut d = Driver::new(presets::single_origin2000(2), cfg(2));
    d.step_once();
    let ckpt = d.checkpoint();
    let json = ckpt.to_json().unwrap();
    assert!(
        ckpt.hierarchy.patches.len() > 3,
        "the paths below name patch 3"
    );

    let truncated = Checkpoint::from_json(&json[..json.len() / 2]).unwrap_err();
    assert_eq!(
        (truncated.path.as_str(), truncated.expected.as_str()),
        ("", "a JSON document")
    );

    let doc = base::json::parse(&json).unwrap();
    let read = |doc: &Json| {
        <Checkpoint as FromJson>::from_json(doc)
            .unwrap_err()
            .to_string()
    };
    let damaged = |path: &[&str], value: Json| {
        let mut doc = doc.clone();
        *at(&mut doc, path) = value;
        read(&doc)
    };
    let data_17 = ["hierarchy", "patches", "3", "fields", "0", "data", "17"];
    assert_eq!(
        damaged(&data_17, Json::Null),
        "hierarchy.patches[3].fields[0].data[17]: expected number, found null"
    );
    assert_eq!(
        damaged(
            &["hierarchy", "patches", "0", "owner"],
            Json::Str("zero".into())
        ),
        "hierarchy.patches[0].owner: expected usize, found string"
    );
    assert_eq!(
        damaged(&["step_count", "0"], Json::Num(1.5)),
        "step_count[0]: expected u64, found number 1.5"
    );
    assert_eq!(
        damaged(&["hierarchy", "patches", "0", "level"], Json::Num(-1.0)),
        "hierarchy.patches[0].level: expected usize, found number -1"
    );
    // 2^53 + 1 is not an f64: a reader that accepted it would have rounded
    let rounded = json.replace(
        &format!("\"cell_updates\":{}", ckpt.cell_updates),
        "\"cell_updates\":9007199254740993",
    );
    assert_eq!(
        Checkpoint::from_json(&rounded).unwrap_err().to_string(),
        "cell_updates: expected u64, found number 9007199254740992"
    );
    // a field whose data does not fill its box
    let short = damaged(&data_17[..6], Json::Arr(vec![Json::Num(0.0); 17]));
    assert!(
        short.starts_with("hierarchy.patches[3].fields[0].data: expected one value per cell of")
            && short.ends_with("found 17 values"),
        "{short}"
    );
    let Json::Obj(mut members) = doc.clone() else {
        panic!("a checkpoint is an object")
    };
    members.retain(|(k, _)| k != "history");
    assert_eq!(
        read(&Json::Obj(members)),
        "history: expected a value, found nothing"
    );

    // and the writer refuses a state it could only store as some other number
    let mut poisoned = ckpt;
    poisoned.hierarchy.patches[3].fields[0].data_mut()[17] = f64::NAN;
    assert_eq!(
        poisoned.to_json().unwrap_err().to_string(),
        "hierarchy.patches[3].fields[0].data[17]: expected a finite number, found NaN"
    );
}

/// The fault `resume` reports for `ckpt` on `sys` under `cfg`.
fn refusal(sys: topology::DistributedSystem, cfg: RunConfig, ckpt: &Checkpoint) -> String {
    match Driver::resume(sys, cfg, ckpt) {
        Ok(_) => panic!("resume accepted a checkpoint it should refuse"),
        Err(e) => e,
    }
}

#[test]
fn mismatched_domain_rejected() {
    let sys = presets::single_origin2000(1);
    let d = Driver::new(sys.clone(), cfg(1));
    let ckpt = d.checkpoint();
    let mut wrong = cfg(1);
    wrong.n0 = 24;
    let e = refusal(sys, wrong, &ckpt);
    assert!(e.starts_with("checkpoint domain "), "{e}");
    assert!(e.contains("is not the configured"), "{e}");
}

#[test]
fn resume_onto_too_small_system_rejected() {
    let sys = presets::single_origin2000(2);
    let mut d = Driver::new(sys, cfg(1));
    d.step_once();
    let ckpt = d.checkpoint();
    // grids owned by proc 1 cannot live on a 1-proc system
    let e = refusal(presets::single_origin2000(1), cfg(1), &ckpt);
    assert!(e.ends_with("is on processor 1 of 1 procs"), "{e}");
}

/// A particle outside `[0, n0)³` is refused by `resume`, naming the
/// particle: drifting it would never wrap it back into the domain.
#[test]
fn particle_outside_the_domain_rejected() {
    let sys = presets::anl_lan_pair(1, 1, 3);
    let mut c = RunConfig::new(AppKind::Amr64, 16, 1, Scheme::distributed_default());
    c.max_levels = 2;
    let d = Driver::new(sys.clone(), c.clone());
    let mut doc = base::json::parse(&d.checkpoint().to_json().unwrap()).unwrap();
    *at(&mut doc, &["particles", "particles", "0", "pos", "0"]) = Json::Num(1e300);
    let ckpt = <Checkpoint as FromJson>::from_json(&doc).unwrap();
    let e = refusal(sys, c, &ckpt);
    assert!(e.starts_with("checkpoint particle 0 at [1e300, "), "{e}");
    assert!(e.ends_with("lies outside [0, 16)³"), "{e}");
}

/// A well-formed document whose hierarchy cannot be: each fault is refused
/// by `resume` with the patch it names, and a checkpoint of another app
/// (another field count) or another depth likewise.
#[test]
fn inconsistent_checkpoint_hierarchies_are_errors() {
    let sys = presets::single_origin2000(2);
    let mut d = Driver::new(sys.clone(), cfg(2));
    d.step_once();
    let ckpt = d.checkpoint();
    let patches = &ckpt.hierarchy.patches;
    let fine = patches.iter().position(|p| p.level == 1).expect("a refined grid");
    let refused = |tamper: &dyn Fn(&mut Checkpoint)| {
        let mut bad = ckpt.clone();
        tamper(&mut bad);
        refusal(sys.clone(), cfg(2), &bad)
    };

    let e = refused(&|c| c.hierarchy.patches[fine].id = c.hierarchy.patches[0].id);
    let dup = format!("checkpoint hierarchy: {:?} already in use", patches[0].id);
    assert_eq!(e, dup);
    let e = refused(&|c| c.hierarchy.patches[fine].region.lo.x = -1);
    assert!(e.starts_with("checkpoint hierarchy: "), "{e}");
    assert!(e.ends_with("outside the level-1 domain"), "{e}");
    let e = refused(&|c| c.hierarchy.nfields += 1);
    let shape = "checkpoint (refinement, levels, fields, ghost) (2, 3, 6, 1), \
                 the ShockPool3D run (2, 3, 5, 1)";
    assert_eq!(e, shape);

    let mut amr = RunConfig::new(AppKind::Amr64, 16, 1, Scheme::Static);
    amr.max_levels = 3;
    let e = refusal(sys.clone(), amr, &ckpt);
    assert!(e.ends_with("(2, 3, 5, 1), the Amr64 run (2, 3, 6, 1)"), "{e}");
    // a hierarchy one level deeper than the run could hold
    let e = refusal(sys, cfg(2), &{
        let mut deeper = ckpt.clone();
        deeper.hierarchy.max_levels = 4;
        deeper
    });
    assert!(e.ends_with("(2, 4, 5, 1), the ShockPool3D run (2, 3, 5, 1)"), "{e}");
}
