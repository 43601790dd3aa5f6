//! Golden outputs of the CMR heuristic, pinned bit for bit.
//!
//! The table below fixes, for a set of inputs, hardware graphs and seeds,
//! what `find_embedding` returns: a digest of the chains and the qubit count
//! on success, the error on failure, and the work counters (Dijkstra calls
//! and edge relaxations) either way.  A change that only speeds the
//! heuristic up must reproduce the table exactly.  A change that alters
//! what the heuristic computes re-records it: the failure message prints
//! the whole table as measured, ready to paste over `GOLDEN`.

use chimera_graph::{generators, Chimera, FaultModel, Graph};
use minor_embed::{find_embedding, verify_embedding, CmrConfig, EmbedError, Embedding};

/// One pinned call: `(input, hardware, seed, success, counters)`, where
/// `success` is `Some((qubits_used, chain digest))` or `None` for
/// `NoEmbeddingFound`, and `counters` is `(dijkstra_calls, edge_relaxations)`.
type Row = (
    &'static str,
    &'static str,
    u64,
    Option<(usize, u64)>,
    (u64, u64),
);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("K4", "C(12,12,4)-12dead", 1, Some((6, 195000519812220837)), (60, 394560)),
    ("K4", "C(12,12,4)-12dead", 2, Some((6, 16913804445884922337)), (48, 315648)),
    ("K4", "C(12,12,4)-12dead", 3, Some((6, 16913804445884922337)), (48, 315648)),
    ("K5", "C(12,12,4)-12dead", 1, Some((8, 13453126636478250187)), (60, 394560)),
    ("K5", "C(12,12,4)-12dead", 2, Some((8, 14759095139587418623)), (100, 657600)),
    ("K5", "C(12,12,4)-12dead", 3, Some((8, 14759095139587418623)), (140, 920640)),
    ("K6", "C(12,12,4)-12dead", 1, Some((20, 11308281468311157095)), (90, 591840)),
    ("K6", "C(12,12,4)-12dead", 2, Some((20, 7513957711103312215)), (90, 591840)),
    ("K6", "C(12,12,4)-12dead", 3, Some((20, 12034391310827762031)), (90, 591840)),
    ("K7", "C(12,12,4)-12dead", 1, Some((33, 15790809777034246653)), (126, 828576)),
    ("K7", "C(12,12,4)-12dead", 2, Some((33, 783871062285482067)), (126, 828576)),
    ("K7", "C(12,12,4)-12dead", 3, Some((34, 9481239188562840424)), (252, 1657152)),
    ("K8", "C(12,12,4)-12dead", 1, None, (504, 3314304)),
    ("K8", "C(12,12,4)-12dead", 2, Some((37, 15395157328571101796)), (392, 2577792)),
    ("K8", "C(12,12,4)-12dead", 3, Some((37, 15395157328571101796)), (392, 2577792)),
    ("K9", "C(12,12,4)-12dead", 1, None, (648, 4261248)),
    ("K9", "C(12,12,4)-12dead", 2, None, (648, 4261248)),
    ("K9", "C(12,12,4)-12dead", 3, None, (648, 4261248)),
    ("C16", "C(12,12,4)-12dead", 1, Some((38, 7417205052103242630)), (160, 1052160)),
    ("C16", "C(12,12,4)-12dead", 2, Some((56, 11427954296614869801)), (96, 631296)),
    ("C16", "C(12,12,4)-12dead", 3, Some((40, 11780153575028678052)), (96, 631296)),
    ("grid4x4", "C(12,12,4)-12dead", 1, Some((103, 8971543968794865930)), (144, 946944)),
    ("grid4x4", "C(12,12,4)-12dead", 2, Some((84, 9424592114483819920)), (192, 1262592)),
    ("grid4x4", "C(12,12,4)-12dead", 3, Some((51, 13073871183043146383)), (192, 1262592)),
    ("G(16,0.25)", "C(12,12,4)-12dead", 1, Some((108, 8888003236736659034)), (456, 2998656)),
    ("G(16,0.25)", "C(12,12,4)-12dead", 2, Some((100, 5588878927341986515)), (532, 3498432)),
    ("G(16,0.25)", "C(12,12,4)-12dead", 3, Some((100, 5588878927341986515)), (532, 3498432)),
    ("K4", "C(4,4,4)", 1, Some((6, 6359138816821765248)), (36, 25344)),
    ("K4", "C(4,4,4)", 2, Some((6, 6220091384660078817)), (36, 25344)),
    ("K4", "C(4,4,4)", 3, Some((6, 6220091384660078817)), (48, 33792)),
    ("K5", "C(4,4,4)", 1, Some((8, 17115319187664565159)), (100, 70400)),
    ("K5", "C(4,4,4)", 2, Some((8, 1020382996333957031)), (120, 84480)),
    ("K5", "C(4,4,4)", 3, Some((8, 484653640248653287)), (100, 70400)),
    ("K6", "C(4,4,4)", 1, Some((20, 3673513187695273991)), (90, 63360)),
    ("K6", "C(4,4,4)", 2, Some((20, 16595688131943748135)), (90, 63360)),
    ("K6", "C(4,4,4)", 3, Some((20, 419010532796090311)), (90, 63360)),
    ("K7", "C(4,4,4)", 1, None, (378, 266112)),
    ("K7", "C(4,4,4)", 2, None, (378, 266112)),
    ("K7", "C(4,4,4)", 3, None, (378, 266112)),
    ("K8", "C(4,4,4)", 1, None, (504, 354816)),
    ("K8", "C(4,4,4)", 2, Some((23, 4387168286972533801)), (504, 354816)),
    ("K8", "C(4,4,4)", 3, Some((23, 4387168286972533801)), (504, 354816)),
    ("K9", "C(4,4,4)", 1, Some((38, 4967968030704920796)), (504, 354816)),
    ("K9", "C(4,4,4)", 2, None, (648, 456192)),
    ("K9", "C(4,4,4)", 3, Some((36, 16976060040421248107)), (648, 456192)),
    ("C16", "C(4,4,4)", 1, Some((24, 14206542257013980982)), (96, 67584)),
    ("C16", "C(4,4,4)", 2, Some((26, 15576992034853336514)), (160, 112640)),
    ("C16", "C(4,4,4)", 3, Some((28, 11829998512320870944)), (160, 112640)),
    ("grid4x4", "C(4,4,4)", 1, Some((34, 16021369570364274816)), (144, 101376)),
    ("grid4x4", "C(4,4,4)", 2, Some((34, 16021369570364274816)), (144, 101376)),
    ("grid4x4", "C(4,4,4)", 3, Some((45, 9552387190779046379)), (144, 101376)),
    ("G(16,0.25)", "C(4,4,4)", 1, None, (684, 481536)),
    ("G(16,0.25)", "C(4,4,4)", 2, None, (684, 481536)),
    ("G(16,0.25)", "C(4,4,4)", 3, None, (684, 481536)),
];

const SEEDS: [u64; 3] = [1, 2, 3];

fn inputs() -> Vec<(&'static str, Graph)> {
    vec![
        ("K4", generators::complete(4)),
        ("K5", generators::complete(5)),
        ("K6", generators::complete(6)),
        ("K7", generators::complete(7)),
        ("K8", generators::complete(8)),
        ("K9", generators::complete(9)),
        ("C16", generators::cycle(16)),
        ("grid4x4", generators::grid(4, 4)),
        ("G(16,0.25)", generators::gnp(16, 0.25, 7)),
    ]
}

fn hardware() -> Vec<(&'static str, Graph)> {
    let large = Chimera::new(12, 12, 4);
    let faults = FaultModel::exact_dead_qubits(large.graph(), 12, 2016);
    vec![
        ("C(12,12,4)-12dead", faults.apply(large.graph())),
        ("C(4,4,4)", Chimera::new(4, 4, 4).into_graph()),
    ]
}

/// FNV-1a over every chain's length and qubits, in logical-vertex order.
fn digest(embedding: &Embedding) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (_, chain) in embedding.iter() {
        mix(chain.len() as u64);
        for &q in chain {
            mix(q as u64);
        }
    }
    hash
}

fn measure() -> Vec<Row> {
    let mut rows = Vec::new();
    for (hw_name, hw) in hardware() {
        for (input_name, input) in inputs() {
            for seed in SEEDS {
                let config = CmrConfig {
                    seed,
                    tries: 2,
                    max_passes: 4,
                    ..CmrConfig::default()
                };
                let row = match find_embedding(&input, &hw, &config) {
                    Ok(out) => {
                        verify_embedding(&input, &hw, &out.embedding)
                            .expect("a reported embedding verifies");
                        let s = out.stats;
                        let success = Some((out.embedding.qubits_used(), digest(&out.embedding)));
                        (
                            input_name,
                            hw_name,
                            seed,
                            success,
                            (s.dijkstra_calls, s.edge_relaxations),
                        )
                    }
                    Err(EmbedError::NoEmbeddingFound { stats: s, .. }) => (
                        input_name,
                        hw_name,
                        seed,
                        None,
                        (s.dijkstra_calls, s.edge_relaxations),
                    ),
                    Err(other) => panic!("{input_name} on {hw_name}: unexpected error {other}"),
                };
                rows.push(row);
            }
        }
    }
    rows
}

#[test]
fn cmr_outputs_match_the_pinned_table() {
    let measured = measure();
    if measured != GOLDEN {
        let mut table = String::from("const GOLDEN: &[Row] = &[\n");
        for row in &measured {
            table.push_str(&format!("    {row:?},\n"));
        }
        table.push_str("];");
        panic!("CMR outputs differ from the pinned table; measured:\n{table}");
    }
}

#[test]
fn the_table_covers_a_failure_and_every_case() {
    assert_eq!(
        GOLDEN.len(),
        hardware().len() * inputs().len() * SEEDS.len()
    );
    assert!(GOLDEN.iter().any(|row| row.3.is_none()));
    assert!(GOLDEN.iter().filter(|row| row.3.is_some()).count() > GOLDEN.len() / 2);
}
