//! Pins what the logic optimizer produces, bit for bit, on every design
//! the `design` benchmark loop prices.
//!
//! The worklist optimizer (`netlist::optimize`) is rewritten for speed
//! from time to time; each rewrite must apply the same rules in the same
//! order, so the optimized netlists (and every PPA number priced from
//! them) cannot move. For the bespoke parallel tree, the baseline and
//! optimized lookup trees (depths 1/2/4/8), and the bespoke, baseline and
//! optimized lookup SVMs of all seven applications, trained with model
//! seed 7, plus Table V's four conventional SVMs, this test pins the
//! optimized module's content key and the optimizer's per-rule tallies.
//!
//! It also pins the serialized JSON and content key of a few hand-built
//! gates, one of each input arity plus a flip-flop, so the in-memory
//! form of a gate's input pins may change while its encoding may not.

use printed_ml::cache;
use printed_ml::core::bespoke::{bespoke_parallel_raw, bespoke_svm_raw};
use printed_ml::core::conventional::svm::{generate as conventional_svm, SvmSpec};
use printed_ml::core::flow::{SvmFlow, TreeFlow};
use printed_ml::core::lookup::{lookup_parallel_raw, lookup_svm_raw, LookupConfig};
use printed_ml::ml::synth::Application;
use printed_ml::netlist::builder::NetlistBuilder;
use printed_ml::netlist::ir::{Gate, Signal};
use printed_ml::netlist::opt::optimize_with_stats;
use printed_ml::netlist::Module;

/// Model seed of the benchmark's design loop and of the paper's tables.
const MODEL_SEED: u64 = 7;
/// Tree depths of the paper's sweep (DT-1/2/4/8).
const DEPTHS: [usize; 4] = [1, 2, 4, 8];

/// `(design, content key of the optimized module, [gates_out, aliased,
/// rewritten, merged, dead])`.
type Pin = (String, String, [usize; 5]);

/// Optimizes `raw` and returns its pin.
fn pin(name: String, raw: &Module) -> Pin {
    let (m, s) = optimize_with_stats(raw);
    let key = cache::key_for("opt.pins", &m).to_string();
    (
        name,
        key,
        [s.gates_out, s.aliased, s.rewritten, s.merged, s.dead],
    )
}

/// Every optimized design of one application.
fn app_pins(app: Application) -> Vec<Pin> {
    let lookups = [
        ("lookup-baseline", LookupConfig::baseline()),
        ("lookup-optimized", LookupConfig::optimized()),
    ];
    let mut pins = Vec::new();
    for depth in DEPTHS {
        let flow = TreeFlow::new(app, depth, MODEL_SEED);
        let tag = format!("{}/dt{depth}", app.name());
        pins.push(pin(
            format!("{tag}/bespoke"),
            &bespoke_parallel_raw(&flow.qt),
        ));
        for (name, config) in lookups {
            let raw = lookup_parallel_raw(&flow.qt, config);
            pins.push(pin(format!("{tag}/{name}"), &raw));
        }
    }
    let flow = SvmFlow::new(app, MODEL_SEED);
    let tag = format!("{}/svm", app.name());
    pins.push(pin(format!("{tag}/bespoke"), &bespoke_svm_raw(&flow.qs)));
    for (name, config) in lookups {
        pins.push(pin(
            format!("{tag}/{name}"),
            &lookup_svm_raw(&flow.qs, config),
        ));
    }
    pins
}

/// Renders pins as Rust source, for re-pinning a deliberate change.
fn render(pins: &[Pin]) -> String {
    pins.iter()
        .map(|(name, key, counts)| format!("    (\"{name}\", \"{key}\", {counts:?}),\n"))
        .collect()
}

fn check(got: &[Pin], want: &[(&str, &str, [usize; 5])]) {
    let want: Vec<Pin> = want
        .iter()
        .map(|&(name, key, counts)| (name.to_string(), key.to_string(), counts))
        .collect();
    assert_eq!(
        got,
        want,
        "an optimized netlist moved; got:\n{}",
        render(got)
    );
}

macro_rules! app_test {
    ($test:ident, $app:expr, $pins:ident) => {
        #[test]
        fn $test() {
            check(&app_pins($app), $pins);
        }
    };
}

#[rustfmt::skip]
const ARRHYTHMIA: &[(&str, &str, [usize; 5])] = &[
    ("arrhythmia/dt1/bespoke", "5fecb58880ef383dce842a3810770559", [6, 29, 9, 0, 9]),
    ("arrhythmia/dt1/lookup-baseline", "ae5b0cd9bfaa205a88aa3d360aa4f803", [0, 4, 0, 0, 0]),
    ("arrhythmia/dt1/lookup-optimized", "eb7b9bb8125292b7ff4ec6687d94b8b8", [0, 4, 0, 0, 0]),
    ("arrhythmia/dt2/bespoke", "ae53ebc8fa8a98ea22874b5cd8ba02cf", [9, 54, 12, 0, 9]),
    ("arrhythmia/dt2/lookup-baseline", "a631a211700309211815c322320ffb80", [4, 8, 3, 0, 0]),
    ("arrhythmia/dt2/lookup-optimized", "07677fea79f374fa0f66579fc295a2f6", [4, 8, 3, 0, 0]),
    ("arrhythmia/dt4/bespoke", "afeedf225a6d6e25b56ee17cc96f07bd", [69, 236, 70, 5, 52]),
    ("arrhythmia/dt4/lookup-baseline", "cc16891c89119c60fa973e8d675f3f6b", [31, 28, 17, 3, 0]),
    ("arrhythmia/dt4/lookup-optimized", "995aa0d7f2ffad2add72643c0b0bcb47", [31, 28, 17, 3, 0]),
    ("arrhythmia/dt8/bespoke", "4c1bbf99eb51328aa675e65f7c0d4b53", [221, 864, 270, 128, 120]),
    ("arrhythmia/dt8/lookup-baseline", "900ae55cdfb427566b7424fd0ad12324", [148, 80, 93, 25, 0]),
    ("arrhythmia/dt8/lookup-optimized", "8238ef082cf0fec42cc0c8d670d34457", [131, 88, 94, 34, 0]),
    ("arrhythmia/svm/bespoke", "3cd2ee1729aff060c4bc631f543801cc", [7554, 3536, 334, 297, 182]),
    ("arrhythmia/svm/lookup-baseline", "b2c92cab9d45addb03f13c8ba60d5033", [6972, 1698, 90, 199, 36]),
    ("arrhythmia/svm/lookup-optimized", "7a94d1ea66ed0c5a32de5d4b9183fed0", [6512, 2158, 90, 199, 36]),
];
#[rustfmt::skip]
const CARDIO: &[(&str, &str, [usize; 5])] = &[
    ("cardio/dt1/bespoke", "8abdd5d431a6ae285edc1986a32161a8", [4, 15, 4, 0, 3]),
    ("cardio/dt1/lookup-baseline", "17f06ce21e109b1d257b0f0b550fb694", [1, 1, 1, 0, 0]),
    ("cardio/dt1/lookup-optimized", "eb1496709601792397533bcb83d62690", [1, 1, 1, 0, 0]),
    ("cardio/dt2/bespoke", "06c162232de173885410806642b67dff", [12, 44, 13, 0, 11]),
    ("cardio/dt2/lookup-baseline", "1bdd0620e23dc640de66cf7badbe0b10", [4, 3, 2, 0, 0]),
    ("cardio/dt2/lookup-optimized", "bbcffba111a41e5f865246bd727671ae", [4, 3, 2, 0, 0]),
    ("cardio/dt4/bespoke", "ae0acb2a6c8bcb7fcdce8981045f970d", [110, 375, 117, 14, 93]),
    ("cardio/dt4/lookup-baseline", "21e75f3c005e7c8c0f7778ddbf3c2e14", [21, 11, 11, 0, 0]),
    ("cardio/dt4/lookup-optimized", "de39f08a90b4cc6770faef077584ea9b", [21, 11, 11, 0, 0]),
    ("cardio/dt8/bespoke", "03d529192a37f0f397b6d0734b2b90f1", [236, 802, 257, 57, 179]),
    ("cardio/dt8/lookup-baseline", "71a407c68497eeb1e651b46e57e6bba9", [56, 16, 31, 2, 0]),
    ("cardio/dt8/lookup-optimized", "08e84035fb3e2d85b81b77fd4873d8b6", [56, 16, 31, 2, 0]),
    ("cardio/svm/bespoke", "94783115d39fa0ffc37477bf3bb7b4e1", [375, 213, 40, 16, 22]),
    ("cardio/svm/lookup-baseline", "ce9aa9cc0d097ee4d0783a0bff36ce54", [321, 125, 16, 6, 8]),
    ("cardio/svm/lookup-optimized", "c0baa88104c3c47c8728248b4a8019e1", [301, 145, 16, 6, 8]),
];
#[rustfmt::skip]
const GASID: &[(&str, &str, [usize; 5])] = &[
    ("gasid/dt1/bespoke", "ead2af8b5dc098579053a5da78e1f060", [1, 21, 2, 1, 0]),
    ("gasid/dt1/lookup-baseline", "5ee986450eaf4cfe0ebd263b3cd36e19", [1, 2, 1, 0, 0]),
    ("gasid/dt1/lookup-optimized", "c75cc33c61ee462536d8fd95905bb0c4", [1, 2, 1, 0, 0]),
    ("gasid/dt2/bespoke", "f9454fce9c13dbc3e75db9ffe76edb4b", [19, 98, 18, 2, 12]),
    ("gasid/dt2/lookup-baseline", "c663768eb0ced7974bf2245e17a74d1f", [6, 4, 5, 1, 0]),
    ("gasid/dt2/lookup-optimized", "d8e29123563076e89fc8d9486f20757d", [6, 4, 5, 1, 0]),
    ("gasid/dt4/bespoke", "4977707961faf0e7990ab722d9139571", [111, 428, 116, 19, 89]),
    ("gasid/dt4/lookup-baseline", "99a664f1561107d55abff7f6253c0b74", [26, 17, 15, 4, 0]),
    ("gasid/dt4/lookup-optimized", "57584bae8602df7349ea01ab942df1c8", [26, 17, 15, 4, 0]),
    ("gasid/dt8/bespoke", "e2e95d76cce139a0af2739fb48692b14", [505, 1799, 561, 158, 396]),
    ("gasid/dt8/lookup-baseline", "def19bf64f568c8dc91ae2cc9306ba66", [95, 48, 58, 15, 0]),
    ("gasid/dt8/lookup-optimized", "0ae5a6a7d30f7c7bf908ed96179bcfa2", [95, 48, 58, 15, 0]),
    ("gasid/svm/bespoke", "f111fb26379353bb1f299cdf9d10da8c", [9756, 4119, 550, 827, 252]),
    ("gasid/svm/lookup-baseline", "caedf54487aa8d7c0a544e401493953c", [6650, 1086, 75, 608, 11]),
    ("gasid/svm/lookup-optimized", "e72d4cee8ce10f11f8295e6e639804e0", [6240, 1496, 75, 608, 11]),
];
#[rustfmt::skip]
const HAR: &[(&str, &str, [usize; 5])] = &[
    ("har/dt1/bespoke", "d7f3600863bc9bd110b40bac89fa3419", [0, 22, 1, 0, 1]),
    ("har/dt1/lookup-baseline", "cac69a3ea64c64264c7d47327cfa3598", [0, 3, 0, 0, 0]),
    ("har/dt1/lookup-optimized", "afc9da93619d8655d8a6e06e81e2fd53", [0, 3, 0, 0, 0]),
    ("har/dt2/bespoke", "40bebf9f08baacb99e436fa733a7ce45", [24, 77, 30, 1, 27]),
    ("har/dt2/lookup-baseline", "94d087917db4fa89b59bdf5c1a05a639", [4, 4, 3, 1, 0]),
    ("har/dt2/lookup-optimized", "cc464cbd4481c0e115a9610ff06587b8", [4, 4, 3, 1, 0]),
    ("har/dt4/bespoke", "be8d174f95aa3e87eee4f5573e8b16cc", [170, 536, 189, 44, 137]),
    ("har/dt4/lookup-baseline", "4239c3f8f243bee33594383b42941eb7", [29, 16, 17, 2, 0]),
    ("har/dt4/lookup-optimized", "04ce13379b36cba39745d894fa4ba180", [29, 16, 17, 2, 0]),
    ("har/dt8/bespoke", "dfe0e17fa07e654101ca046fbe67eb32", [458, 1612, 529, 230, 298]),
    ("har/dt8/lookup-baseline", "2d65cdaf313d23fe50bc37d1b11bda33", [88, 42, 58, 8, 0]),
    ("har/dt8/lookup-optimized", "647808c8c46cb9bd676456a6cce37f85", [88, 42, 58, 8, 0]),
    ("har/svm/bespoke", "846cc1947bc060cccdc678354759ae2e", [3142, 1596, 427, 293, 196]),
    ("har/svm/lookup-baseline", "47df9bd2bb0e826ecd592cf2e97da2af", [1650, 320, 118, 148, 62]),
    ("har/svm/lookup-optimized", "c784098e7b64c1feb65168bc78babbad", [1575, 395, 118, 148, 62]),
];
#[rustfmt::skip]
const PENDIGITS: &[(&str, &str, [usize; 5])] = &[
    ("pendigits/dt1/bespoke", "f7e713805a9f92d9a511afa74ef4e58e", [12, 37, 16, 0, 15]),
    ("pendigits/dt1/lookup-baseline", "e3a5f5b55c10d42e85b5227e1a9617b8", [1, 3, 1, 0, 0]),
    ("pendigits/dt1/lookup-optimized", "f8565828aec42f83c9091cd71bc9454e", [1, 3, 1, 0, 0]),
    ("pendigits/dt2/bespoke", "1bb209c296574bf675e0e750943dd4e2", [8, 59, 9, 2, 4]),
    ("pendigits/dt2/lookup-baseline", "bb6cba797cdf98258cadfa8047012d4c", [5, 7, 4, 1, 0]),
    ("pendigits/dt2/lookup-optimized", "891c39dcf552fd84294b698768255c1e", [5, 7, 4, 1, 0]),
    ("pendigits/dt4/bespoke", "f2372c9d6a845808c6463c7dabeb15fb", [124, 432, 126, 16, 94]),
    ("pendigits/dt4/lookup-baseline", "4eb6f23f4494b8ca482686ceda96e709", [33, 33, 19, 0, 0]),
    ("pendigits/dt4/lookup-optimized", "66e0c6e9b96cfb8dc86058d67b0cf179", [33, 33, 19, 0, 0]),
    ("pendigits/dt8/bespoke", "16522d595fd2fb3bb49bd510f2d86bcd", [1276, 5538, 1542, 1074, 549]),
    ("pendigits/dt8/lookup-baseline", "fd8cb900748065eab26e68a254a46f4e", [440, 352, 232, 45, 0]),
    ("pendigits/dt8/lookup-optimized", "b98ec8de32e19e48a2b45185d9f53f24", [435, 352, 232, 50, 0]),
    ("pendigits/svm/bespoke", "ec26cd57c699e0ae75a796de337c0771", [842, 547, 75, 114, 34]),
    ("pendigits/svm/lookup-baseline", "a74ff829fa5472d32b3ad438fa14146e", [802, 437, 53, 105, 21]),
    ("pendigits/svm/lookup-optimized", "326810c696bc2755829d1115000ed52c", [767, 472, 53, 105, 21]),
];
#[rustfmt::skip]
const REDWINE: &[(&str, &str, [usize; 5])] = &[
    ("redwine/dt1/bespoke", "ef57f964ac580b7595f4df0a8fda5d91", [0, 22, 1, 0, 1]),
    ("redwine/dt1/lookup-baseline", "d13c87ec62554ffdb9a082d698c8e85e", [0, 3, 0, 0, 0]),
    ("redwine/dt1/lookup-optimized", "2e3c79ade0b65c533699d83017d7d242", [0, 3, 0, 0, 0]),
    ("redwine/dt2/bespoke", "6082f0ce2e0f4ed8e7ebedb50448e356", [10, 52, 11, 0, 7]),
    ("redwine/dt2/lookup-baseline", "08c3d2178424d37ecc8a12231392346f", [5, 4, 4, 0, 0]),
    ("redwine/dt2/lookup-optimized", "4be1018eccc232c23e12fd9e97806a56", [5, 4, 4, 0, 0]),
    ("redwine/dt4/bespoke", "da7ecafdd9e3735ae4dca1182a6a9ea6", [43, 266, 47, 21, 21]),
    ("redwine/dt4/lookup-baseline", "7ca329142989b3cac1b81a7902d49ddb", [28, 20, 14, 3, 0]),
    ("redwine/dt4/lookup-optimized", "994ee52820994a5f559198ef5f4a0fa9", [27, 20, 14, 4, 0]),
    ("redwine/dt8/bespoke", "a64235ed3303d59eb01bd05e0960c8e2", [881, 3878, 1083, 745, 393]),
    ("redwine/dt8/lookup-baseline", "0972da0c66f7f3787d5195c2cc25cfcf", [289, 148, 155, 20, 0]),
    ("redwine/dt8/lookup-optimized", "2c0e965c7d3464f410222beaeccf34c8", [289, 148, 155, 20, 0]),
    ("redwine/svm/bespoke", "400a8b2d32caadbde3f3bdeb7fccb1a1", [1712, 862, 189, 117, 89]),
    ("redwine/svm/lookup-baseline", "c43a7e726a05449e13c713559ae2af4a", [1148, 369, 71, 69, 34]),
    ("redwine/svm/lookup-optimized", "0e423fc0bfd956c8675b448754ec6d45", [1123, 394, 71, 69, 34]),
];
#[rustfmt::skip]
const WHITEWINE: &[(&str, &str, [usize; 5])] = &[
    ("whitewine/dt1/bespoke", "3912d76fb36102f0e1a7ca6e4cbcb99f", [0, 17, 3, 0, 6]),
    ("whitewine/dt1/lookup-baseline", "d615d5b10a06002f15231aa236cfef2b", [0, 3, 0, 0, 0]),
    ("whitewine/dt1/lookup-optimized", "d615d5b10a06002f15231aa236cfef2b", [0, 3, 0, 0, 0]),
    ("whitewine/dt2/bespoke", "d32a5cf0a89961d51ce6fe7ea888f3ac", [11, 51, 12, 3, 6]),
    ("whitewine/dt2/lookup-baseline", "8f419a0b6c096f46b9cce2b64abcb1f9", [6, 3, 5, 2, 0]),
    ("whitewine/dt2/lookup-optimized", "14c21c0d095b072c137e10d1f815a915", [6, 3, 5, 2, 0]),
    ("whitewine/dt4/bespoke", "14965d8ce4ff897954db945c74a5451e", [162, 619, 162, 55, 114]),
    ("whitewine/dt4/lookup-baseline", "5e6160c794733bf7e79ce2973e3abe79", [27, 21, 13, 2, 0]),
    ("whitewine/dt4/lookup-optimized", "d9c8c4ee6411a3a2f2338a99bffbb4a7", [27, 21, 13, 2, 0]),
    ("whitewine/dt8/bespoke", "2f98ce9d2f681324885c549d57f5cd7f", [1243, 6115, 1651, 1346, 559]),
    ("whitewine/dt8/lookup-baseline", "845d2cd04422bb70890d92fb2a62c177", [399, 292, 201, 12, 0]),
    ("whitewine/dt8/lookup-optimized", "844a700e7b030cee00affaad9554b214", [391, 292, 201, 20, 0]),
    ("whitewine/svm/bespoke", "dc7d1c5e85363a9e037f12a555a3345c", [1530, 843, 233, 208, 116]),
    ("whitewine/svm/lookup-baseline", "4edf45539f14b1cd79182ed4c361adda", [1100, 452, 106, 147, 56]),
    ("whitewine/svm/lookup-optimized", "70b2be36aa7311a3fc2d32aaf0903c8a", [1075, 477, 106, 147, 56]),
];

app_test!(
    arrhythmia_designs_are_pinned,
    Application::ALL[0],
    ARRHYTHMIA
);
app_test!(cardio_designs_are_pinned, Application::ALL[1], CARDIO);
app_test!(gasid_designs_are_pinned, Application::ALL[2], GASID);
app_test!(har_designs_are_pinned, Application::ALL[3], HAR);
app_test!(pendigits_designs_are_pinned, Application::ALL[4], PENDIGITS);
app_test!(redwine_designs_are_pinned, Application::ALL[5], REDWINE);
app_test!(whitewine_designs_are_pinned, Application::ALL[6], WHITEWINE);

/// Table V's conventional SVMs, 4 to 16 bits wide.
#[rustfmt::skip]
const CONVENTIONAL: &[(&str, &str, [usize; 5])] = &[
    ("conventional-svm-4", "9af8c873182d62bcd25fa197a1d13094", [31472, 4035, 0, 0, 15]),
    ("conventional-svm-8", "953eee1489c635015ef390105abbabb1", [112104, 7191, 0, 0, 15]),
    ("conventional-svm-12", "4fe4253f64812d866ab9b748583ff110", [243232, 10347, 0, 0, 15]),
    ("conventional-svm-16", "b22c511ef4e4b16d0dbe9f681afa424b", [424856, 13503, 0, 0, 15]),
];

#[test]
fn conventional_svms_are_pinned() {
    let got: Vec<Pin> = [4, 8, 12, 16]
        .into_iter()
        .map(|w| {
            let raw = conventional_svm(&SvmSpec::conventional(w));
            pin(format!("conventional-svm-{w}"), &raw)
        })
        .collect();
    check(&got, CONVENTIONAL);
}

/// `(gate, its JSON, its content key)`.
#[rustfmt::skip]
const GATES: &[(&str, &str, &str)] = &[
    ("inv", "{\"kind\":\"Inv\",\"inputs\":[{\"Net\":0}],\"output\":3,\"init\":false,\"region\":0}", "7239baaad0ee16387ac5dcb8ead85e89"),
    ("nand2", "{\"kind\":\"Nand2\",\"inputs\":[{\"Net\":1},{\"Const\":true}],\"output\":4,\"init\":false,\"region\":0}", "aa2b5b6ab62793252ae61198cc417245"),
    ("mux2", "{\"kind\":\"Mux2\",\"inputs\":[{\"Net\":2},{\"Net\":3},{\"Const\":false}],\"output\":5,\"init\":false,\"region\":0}", "5f7fda4b2737ce8f613d522d4bf68e62"),
    ("dff", "{\"kind\":\"Dff\",\"inputs\":[{\"Net\":4}],\"output\":6,\"init\":true,\"region\":0}", "57654fbc5895a4b58d83f8699dba57cf"),
];

#[test]
fn gate_encoding_is_pinned() {
    let mut b = NetlistBuilder::new("pins");
    let x = b.input("x", 3);
    let inv = b.not(x[0]);
    let nand = b.nand(x[1], Signal::ONE);
    let mux = b.mux(x[2], inv, Signal::ZERO);
    let q = b.dff(nand, true);
    b.output("o", &[mux, q]);
    let m = b.finish();
    let names = ["inv", "nand2", "mux2", "dff"];
    assert_eq!(m.gates.len(), names.len());
    let got: Vec<(String, String, String)> = names
        .iter()
        .zip(&m.gates)
        .map(|(name, g)| {
            let json = serde_json::to_string(g).expect("serialize gate");
            let back: Gate = serde_json::from_str(&json).expect("deserialize gate");
            assert_eq!(&back, g, "{name} does not round-trip");
            let key = cache::key_for("opt.pins", g).to_string();
            (name.to_string(), json, key)
        })
        .collect();
    let want: Vec<(String, String, String)> = GATES
        .iter()
        .map(|&(n, j, k)| (n.to_string(), j.to_string(), k.to_string()))
        .collect();
    let rendered: String = got
        .iter()
        .map(|(n, j, k)| format!("    (\"{n}\", {j:?}, \"{k}\"),\n"))
        .collect();
    assert_eq!(got, want, "a gate's encoding moved; got:\n{rendered}");
    let module_key = cache::key_for("opt.pins", &m).to_string();
    assert_eq!(
        module_key, "634aea348e6ba6ff81830bf8a2344693",
        "the module's key moved"
    );
}
