//! Pins what every tree and SVM generator emits, byte for byte.
//!
//! The generators share their building blocks (the class-select walk,
//! the per-feature lookup tables, the SVM datapath), and those blocks
//! may be reorganized as long as every netlist comes out the same, gate
//! order, net numbering and region tags included: the optimizer, the PPA
//! analysis and the other pin tests all start from these bytes. For all
//! seven applications, trained with model seed 7, this test pins the
//! content key of:
//!
//! * the unoptimized bespoke parallel tree and the baseline and
//!   optimized lookup trees at depths 1/2/4/8, and the bespoke serial
//!   tree at the same depths;
//! * the unoptimized bespoke and baseline/optimized lookup SVMs and the
//!   serial SVM;
//! * the RF-1/2/4 forest engines in the bespoke, baseline-lookup and
//!   optimized-lookup styles.
//!
//! Arrhythmia's and GasID's serial SVMs schedule more than 64 terms, so
//! their one-hot step registers run past the 64-bit power-on word of
//! `netlist::seq::shift_register`; their pins hold the engines whose
//! stages past bit 63 power on clear.

use printed_ml::cache;
use printed_ml::core::bespoke::{bespoke_parallel_raw, bespoke_serial, bespoke_svm_raw};
use printed_ml::core::flow::{ForestFlow, SvmFlow, TreeFlow};
use printed_ml::core::lookup::{lookup_parallel_raw, lookup_svm_raw, LookupConfig};
use printed_ml::core::{forest_engine, serial_svm, ForestStyle};
use printed_ml::ml::synth::Application;
use printed_ml::netlist::Module;

/// Model seed of the benchmark's design loop and of the paper's tables.
const MODEL_SEED: u64 = 7;
/// Tree depths of the paper's sweep (DT-1/2/4/8).
const DEPTHS: [usize; 4] = [1, 2, 4, 8];
/// Forest sizes (RF-1/2/4).
const FORESTS: [usize; 3] = [1, 2, 4];

/// `(design, content key of the generated module)`.
type Pin = (String, String);

fn pin(name: String, m: &Module) -> Pin {
    (name, cache::key_for("gen.pins", m).to_string())
}

/// Every generated design of one application.
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
        pins.push(pin(format!("{tag}/serial"), &bespoke_serial(&flow.qt).1));
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
    pins.push(pin(format!("{tag}/serial"), &serial_svm(&flow.qs).0));
    for n_trees in FORESTS {
        let flow = ForestFlow::new(app, n_trees, MODEL_SEED);
        let tag = format!("{}/rf{n_trees}", app.name());
        let styles = [
            ("bespoke", ForestStyle::Bespoke),
            (
                "lookup-baseline",
                ForestStyle::Lookup(LookupConfig::baseline()),
            ),
            (
                "lookup-optimized",
                ForestStyle::Lookup(LookupConfig::optimized()),
            ),
        ];
        for (name, style) in styles {
            pins.push(pin(
                format!("{tag}/{name}"),
                &forest_engine(&flow.qf, style),
            ));
        }
    }
    pins
}

/// Renders pins as Rust source, for re-pinning a deliberate change.
fn render(pins: &[Pin]) -> String {
    pins.iter()
        .map(|(name, key)| format!("    (\"{name}\", \"{key}\"),\n"))
        .collect()
}

fn check(got: &[Pin], want: &[(&str, &str)]) {
    let want: Vec<Pin> = want
        .iter()
        .map(|&(name, key)| (name.to_string(), key.to_string()))
        .collect();
    assert_eq!(
        got,
        want,
        "a generated netlist moved; got:\n{}",
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
const ARRHYTHMIA: &[(&str, &str)] = &[
    ("arrhythmia/dt1/bespoke", "07ab726d7f50872931383335d9b092df"),
    ("arrhythmia/dt1/lookup-baseline", "dcd9df9df5b631d932e2ff0cb7b1e9a6"),
    ("arrhythmia/dt1/lookup-optimized", "67cd72fcde16422b54bb258833a83f16"),
    ("arrhythmia/dt1/serial", "5858c7eae579f9c5918081ed288c07ee"),
    ("arrhythmia/dt2/bespoke", "db1c3610cee90204dfeb2db736acc5fd"),
    ("arrhythmia/dt2/lookup-baseline", "de05e8f680b7c76dc0445c6e7a72d430"),
    ("arrhythmia/dt2/lookup-optimized", "5e5b7107fa548e248e57db6237d67ed8"),
    ("arrhythmia/dt2/serial", "7b6733b7182fa9d62b86d6aca66df40e"),
    ("arrhythmia/dt4/bespoke", "fc77f4fb47408ae153b4540f7b7eae0d"),
    ("arrhythmia/dt4/lookup-baseline", "9e0a33a60f5df19e02220055462b3bc6"),
    ("arrhythmia/dt4/lookup-optimized", "67b1a9fa3c233234a77a16cfed8aa03a"),
    ("arrhythmia/dt4/serial", "3a6f2d1153e829ab9db6f090006af6b9"),
    ("arrhythmia/dt8/bespoke", "98c2959bdc57d702fd2c5f2b01a3937e"),
    ("arrhythmia/dt8/lookup-baseline", "bf9fe2888c1dcf1c2cc3f85a6ac63bfc"),
    ("arrhythmia/dt8/lookup-optimized", "8ca7d0a93f0d2c6fb301c9508bd044be"),
    ("arrhythmia/dt8/serial", "1ffa4c71fb544eb0049d6666f9cc2967"),
    ("arrhythmia/svm/bespoke", "5ffb5a1dd88ab4709227e1788b383f85"),
    ("arrhythmia/svm/lookup-baseline", "9c67cf10f73b258ce97983b39be8ec61"),
    ("arrhythmia/svm/lookup-optimized", "770901f81d1886c650c20f53dd70090e"),
    ("arrhythmia/svm/serial", "8ef7eededc7bbc673d85e97052f65b0a"),
    ("arrhythmia/rf1/bespoke", "e3e85984347a16ce7fcf71490f4f490d"),
    ("arrhythmia/rf1/lookup-baseline", "ac50ca8706f1a6abc9ce33c1cfa193ac"),
    ("arrhythmia/rf1/lookup-optimized", "90d00a9402a78910ca1125015506b18f"),
    ("arrhythmia/rf2/bespoke", "0ecc027627e8cf9656ad6ac44a84a0cd"),
    ("arrhythmia/rf2/lookup-baseline", "932704581f5574f3dc81ee994ebe45ef"),
    ("arrhythmia/rf2/lookup-optimized", "9bac87103ab45ec9241bb3eee13cee69"),
    ("arrhythmia/rf4/bespoke", "c9ad7916bc2f491b6c042b2a1d8e8e64"),
    ("arrhythmia/rf4/lookup-baseline", "d7a50985f3ec35608ebb039747f77bf1"),
    ("arrhythmia/rf4/lookup-optimized", "8057ddf5f1ef2cad8c14d322da055738"),
];
#[rustfmt::skip]
const CARDIO: &[(&str, &str)] = &[
    ("cardio/dt1/bespoke", "2f66dc4a4f23fb9ce97d797c51f977a0"),
    ("cardio/dt1/lookup-baseline", "836a4a56daf7213736f5478c86233610"),
    ("cardio/dt1/lookup-optimized", "0c058129e106131e2ac5b2164c1d9b57"),
    ("cardio/dt1/serial", "27d07ce0b24c058afb9c6e6ba0377d20"),
    ("cardio/dt2/bespoke", "75b098d51e9775f4c35b7edf1f6814d0"),
    ("cardio/dt2/lookup-baseline", "5be006a7e946a88dd7492e77ce5b5599"),
    ("cardio/dt2/lookup-optimized", "9063a133c8fa3cb46d53c9eaf54da550"),
    ("cardio/dt2/serial", "43e2cc067eae6f83cdad4e76fcc717a0"),
    ("cardio/dt4/bespoke", "af316175df08f8d7e9308e3a8c952c37"),
    ("cardio/dt4/lookup-baseline", "12133f3d830f21faf1e0cbd7bcd91de4"),
    ("cardio/dt4/lookup-optimized", "1190cb3785157abb0da1298549caa108"),
    ("cardio/dt4/serial", "8142e420a5aaebbbf70ded6d31cdb30d"),
    ("cardio/dt8/bespoke", "f5bca24de4fe76decaaec2a56fbfa0d9"),
    ("cardio/dt8/lookup-baseline", "6c0d11b7aa134bb56b33ba28534facc1"),
    ("cardio/dt8/lookup-optimized", "0da533c39f3ec93c94911e922c4d7313"),
    ("cardio/dt8/serial", "ea1507d4f16c9c2bc50a917b9e355e2c"),
    ("cardio/svm/bespoke", "2969b7805dd787eac9c3f1c5f9ab091f"),
    ("cardio/svm/lookup-baseline", "19e0a3d4bf03395d32bc4b18679022d8"),
    ("cardio/svm/lookup-optimized", "1b38ebe0b2ca3d5c10c20ec5fbd7d825"),
    ("cardio/svm/serial", "4fcdbe65fd55852b6a4f45f55066af28"),
    ("cardio/rf1/bespoke", "dbca1cb2668e5e5a14c2192b93b7c3cc"),
    ("cardio/rf1/lookup-baseline", "4edb37678bd0e6a416faffeed24454e5"),
    ("cardio/rf1/lookup-optimized", "0dcb70c1cf19b0c25dc0bd43e9c571b3"),
    ("cardio/rf2/bespoke", "d9c2ec07717568998df3549d1f9d7235"),
    ("cardio/rf2/lookup-baseline", "a770e7a54e6cb1830fa48d465a3d0474"),
    ("cardio/rf2/lookup-optimized", "b2e175f6d588d3c642205715b3cb66c9"),
    ("cardio/rf4/bespoke", "7672cd20cc04e84f6f2da1b66c243499"),
    ("cardio/rf4/lookup-baseline", "7837126b9b4d61001e38440ba7319f3e"),
    ("cardio/rf4/lookup-optimized", "c3cf70e12364347d51d0be77bd6f8f3a"),
];
#[rustfmt::skip]
const GASID: &[(&str, &str)] = &[
    ("gasid/dt1/bespoke", "8e5e82e34acf7c0a8999dcf116db61a6"),
    ("gasid/dt1/lookup-baseline", "af088da8e1017ce6139d23a5eed255a4"),
    ("gasid/dt1/lookup-optimized", "12334214a7c772dbb82f3064f8eaedd1"),
    ("gasid/dt1/serial", "7d8e4f430a112e28945696bd00ba1fc0"),
    ("gasid/dt2/bespoke", "85d0d4fb05329d7ed4e11a0bd5c41ce4"),
    ("gasid/dt2/lookup-baseline", "0a61c67a02de5b4d59e1f151687008ec"),
    ("gasid/dt2/lookup-optimized", "f398e5125bd2da698f071acded550596"),
    ("gasid/dt2/serial", "b42839d6f8c5dcdd501652d1e1981502"),
    ("gasid/dt4/bespoke", "289cc52bd47e75b65db18bfeb752d723"),
    ("gasid/dt4/lookup-baseline", "4a52020ed666c097c1388a21ed6c2495"),
    ("gasid/dt4/lookup-optimized", "2951e6263453004faa8b6abd62332a59"),
    ("gasid/dt4/serial", "376bad7a4d57c783704ef6d74ac5e649"),
    ("gasid/dt8/bespoke", "d4e59d4b7e2db2a76246695e2bba4f45"),
    ("gasid/dt8/lookup-baseline", "eb8ebb1f35abea17e9cea8ea9297d9e5"),
    ("gasid/dt8/lookup-optimized", "591f8f7a0cc265ae72e2e2e78345b1df"),
    ("gasid/dt8/serial", "3288b0f83255118d0d348c001a90458d"),
    ("gasid/svm/bespoke", "7e6ed948c7bcf9b5dcd4ba59036f018c"),
    ("gasid/svm/lookup-baseline", "975b16a463c7e7f6f1e4bb28546bc32b"),
    ("gasid/svm/lookup-optimized", "fe9870e283ba6bca4bc50032fc76c000"),
    ("gasid/svm/serial", "0b4b31ee5ac279332d0e55f6ebf79292"),
    ("gasid/rf1/bespoke", "bafd4eb3299e8b6c699b76403ff94d52"),
    ("gasid/rf1/lookup-baseline", "a59e1c6d384feaf3a615f511357f8f9a"),
    ("gasid/rf1/lookup-optimized", "421e33368b28acf0c1ea5601df93985c"),
    ("gasid/rf2/bespoke", "00daa8347529673f3c6a9ae89eab32d4"),
    ("gasid/rf2/lookup-baseline", "d17f0c15fa9f9767483ba6acb3cb29a1"),
    ("gasid/rf2/lookup-optimized", "62d723deb0fb64aeabf75a9c9254fe3c"),
    ("gasid/rf4/bespoke", "89348d01dbfdbf334b611230a00caf75"),
    ("gasid/rf4/lookup-baseline", "b37a86d44cd72b7a7ed11faf3e7498bf"),
    ("gasid/rf4/lookup-optimized", "de1c1e9a64c35c74f05d678d55bcf0da"),
];
#[rustfmt::skip]
const HAR: &[(&str, &str)] = &[
    ("har/dt1/bespoke", "fe319f8ce05bad9b769980a1408692fd"),
    ("har/dt1/lookup-baseline", "7229bd8bd4305c1b71e7effaacfa698a"),
    ("har/dt1/lookup-optimized", "d1e80212e2a3d3b1f5bf4be6126c02d3"),
    ("har/dt1/serial", "b62c5fd15adf1e80a06d47609e36c441"),
    ("har/dt2/bespoke", "f88861e798fa90d4bee5524567fc77ab"),
    ("har/dt2/lookup-baseline", "38d327a830041b236929e1830cf9711c"),
    ("har/dt2/lookup-optimized", "6727f99cd514e296dc5aa6fed43f952b"),
    ("har/dt2/serial", "7ec280047fbd775215b1a4ee4673aab4"),
    ("har/dt4/bespoke", "3ef699517b1fe86abbdcdff1c6f8951b"),
    ("har/dt4/lookup-baseline", "3d32005a90e40dcf4cc5e696c1d3e325"),
    ("har/dt4/lookup-optimized", "d60a8a7443ccb9f8924e67bf3dbfe181"),
    ("har/dt4/serial", "fbb509478ad6698a64dce4463cab585c"),
    ("har/dt8/bespoke", "b325d2fe6af6f8e5f135af606bc46525"),
    ("har/dt8/lookup-baseline", "172b4bf43dfb118d7c6eb6ef637a787b"),
    ("har/dt8/lookup-optimized", "c7cecc1033d479ec7a9eb785144e1b49"),
    ("har/dt8/serial", "2774e40e86cbc3a31a1a5bc8e280d87a"),
    ("har/svm/bespoke", "c13ec5990f28e8e3d414eef489b2a4f4"),
    ("har/svm/lookup-baseline", "728d7ad59ef21dd66357e6ee6542d58c"),
    ("har/svm/lookup-optimized", "59e63508a73135810024a2a8233c8bb1"),
    ("har/svm/serial", "2324f9e1b98765b9ec855008f7b4d290"),
    ("har/rf1/bespoke", "d3e625add34cde114aa2d184a0fc13fe"),
    ("har/rf1/lookup-baseline", "d2e558fec8e4260ffa9b977f1d0e2ece"),
    ("har/rf1/lookup-optimized", "2580b81b27a9035c34d33ccaddd0d584"),
    ("har/rf2/bespoke", "07b388afbba2fd4a0ce7ac3c99c3aba1"),
    ("har/rf2/lookup-baseline", "c270bee45ff094924118f4e2f1e0224c"),
    ("har/rf2/lookup-optimized", "d6b38bbd3cbbeab2a58a818a03f071e0"),
    ("har/rf4/bespoke", "be263225c79ceac730c98498a1e7e4a8"),
    ("har/rf4/lookup-baseline", "d1f18cab223ba9e8c2b9ac1a19a13c6e"),
    ("har/rf4/lookup-optimized", "951b732b9bbaa4f8eb819f5252d50f71"),
];
#[rustfmt::skip]
const PENDIGITS: &[(&str, &str)] = &[
    ("pendigits/dt1/bespoke", "770ab73be7ec00a67a79886276b135e6"),
    ("pendigits/dt1/lookup-baseline", "3a8728cc91642b196ed2026da23b9a23"),
    ("pendigits/dt1/lookup-optimized", "1a82b470d6f6c73b52a73a21365edd94"),
    ("pendigits/dt1/serial", "016b33f0ea13ac2a4ac8ab83fa51540b"),
    ("pendigits/dt2/bespoke", "8a5ee3e56fea6b9c123352520a37cd1e"),
    ("pendigits/dt2/lookup-baseline", "cccbf01dd7c9cca271a3e1b4674a007e"),
    ("pendigits/dt2/lookup-optimized", "0970975f80fe9e728579df8ce2183ede"),
    ("pendigits/dt2/serial", "40f4e3f98bd21394cf74480353047155"),
    ("pendigits/dt4/bespoke", "d1eee3d19fef22656fda5a8697cc26da"),
    ("pendigits/dt4/lookup-baseline", "2f09bfd443dbd3bbc4651761578ca900"),
    ("pendigits/dt4/lookup-optimized", "ae0e3eee9800af45f9dfe3296f6b41bf"),
    ("pendigits/dt4/serial", "2b43527773c0e49dc6cbb6e358b5ec14"),
    ("pendigits/dt8/bespoke", "d57a8c4367f8a6d15cf7bf6e36d78305"),
    ("pendigits/dt8/lookup-baseline", "5dc0620847e2d438001866f6ccdf9f3e"),
    ("pendigits/dt8/lookup-optimized", "961050e80677381959a353e7ff69eb02"),
    ("pendigits/dt8/serial", "cdbe811042059fcd85cbf6716f1e51f4"),
    ("pendigits/svm/bespoke", "8ed7dbadb68d7aec6a487dc5d036d55a"),
    ("pendigits/svm/lookup-baseline", "85508365255e9760ede73de5e7c8d23e"),
    ("pendigits/svm/lookup-optimized", "738d1a3f26cae96db8e1c1738a598ea2"),
    ("pendigits/svm/serial", "b73de4495e064a8624bfbd20905122b2"),
    ("pendigits/rf1/bespoke", "5c39ae91a88b2f07f50830fd584e0150"),
    ("pendigits/rf1/lookup-baseline", "2795309f30bdd6da4456cfc146ea89b5"),
    ("pendigits/rf1/lookup-optimized", "64fee0f809c81da37f194873f344f98e"),
    ("pendigits/rf2/bespoke", "a78c18dd3c3d5a044f067c31c3f23f05"),
    ("pendigits/rf2/lookup-baseline", "6a9f57c732ddc7c48fc894ca8bd8154d"),
    ("pendigits/rf2/lookup-optimized", "216ee10804f5ab4955a8b5d07a95d2e2"),
    ("pendigits/rf4/bespoke", "f9c96e43d1e6286f34680daa39b0233f"),
    ("pendigits/rf4/lookup-baseline", "b3d5170596e0033c52644f400f69714f"),
    ("pendigits/rf4/lookup-optimized", "86ecea5ab23ed301315416e6e90d9cb6"),
];
#[rustfmt::skip]
const REDWINE: &[(&str, &str)] = &[
    ("redwine/dt1/bespoke", "ea174dd8782d984f3fee0e91e486ce47"),
    ("redwine/dt1/lookup-baseline", "0e479db038bf9989dd75d23b1bb72050"),
    ("redwine/dt1/lookup-optimized", "b86eb8ebf2c2d5d87e077cbf7d6b463b"),
    ("redwine/dt1/serial", "c36a64289fcee45801a36a53480290fc"),
    ("redwine/dt2/bespoke", "49953ed4a93dbd964ffc15b96b1e5376"),
    ("redwine/dt2/lookup-baseline", "0a10d9342b6bbbfe988f04d2af7c639f"),
    ("redwine/dt2/lookup-optimized", "b958857c5ad360de6f7dfe25c267bbe8"),
    ("redwine/dt2/serial", "c6feb739de0bda04f581a176b082cc70"),
    ("redwine/dt4/bespoke", "23100dafd0c8c368651901aeddd268bf"),
    ("redwine/dt4/lookup-baseline", "d6431cb3e369c0fbf95529e9028ea06b"),
    ("redwine/dt4/lookup-optimized", "ae380aa8e82e30e4ad92625e67ec0e8a"),
    ("redwine/dt4/serial", "dcbcb9981c01c99dcfc1eeb9565eed51"),
    ("redwine/dt8/bespoke", "b29f79943e361e5b08864eb84b872d44"),
    ("redwine/dt8/lookup-baseline", "659f47903c2a669187a38d5033e13af1"),
    ("redwine/dt8/lookup-optimized", "96c9f9caafedf7d59b1e6557eafec0c0"),
    ("redwine/dt8/serial", "afca5dab87c3cb3131fdddab55d52f1e"),
    ("redwine/svm/bespoke", "99b808202c16ef375da7c5b25a5c343d"),
    ("redwine/svm/lookup-baseline", "0c0ecef5b15becf68144d982062d1f5f"),
    ("redwine/svm/lookup-optimized", "b8dfd599a174f8fdeaa422940fae1ea2"),
    ("redwine/svm/serial", "24f68dcadba207dff6a052f31de38799"),
    ("redwine/rf1/bespoke", "3fbf90c2afdc1b6bbe07b7e4edbe94e6"),
    ("redwine/rf1/lookup-baseline", "66db928bd64f8d05b9f077911d5717dc"),
    ("redwine/rf1/lookup-optimized", "ea982b15bd5ad975785823bbbf985b53"),
    ("redwine/rf2/bespoke", "e9328f70be795a7ecd6be7ecfb23ca28"),
    ("redwine/rf2/lookup-baseline", "75ad8e0403c13e4f4fa7f9f30fcaa394"),
    ("redwine/rf2/lookup-optimized", "092df04982102e9e5359c97c05b45366"),
    ("redwine/rf4/bespoke", "ccaa39a93547fb457e6fb39b37917773"),
    ("redwine/rf4/lookup-baseline", "87670956e80f12a6ec6e5a67ddd4809d"),
    ("redwine/rf4/lookup-optimized", "abc7c782dd358660e2e6831ca399e58a"),
];
#[rustfmt::skip]
const WHITEWINE: &[(&str, &str)] = &[
    ("whitewine/dt1/bespoke", "942ebfcfb201b97890a3f72381efaf52"),
    ("whitewine/dt1/lookup-baseline", "4fe4f53cc2425b0d92a59c10570f4792"),
    ("whitewine/dt1/lookup-optimized", "09201626bc5f6e9697b163b758b0b50a"),
    ("whitewine/dt1/serial", "c4b17eac8f2de1482352fea6f599af08"),
    ("whitewine/dt2/bespoke", "baa3bf0fab7901ac3e92bc00c8d9c724"),
    ("whitewine/dt2/lookup-baseline", "e2cc5f431ce590edd570a04056d9b8ef"),
    ("whitewine/dt2/lookup-optimized", "e388cbb9c0a7ceec049ac43e74fcb31d"),
    ("whitewine/dt2/serial", "251fb29abe59ae5e499dcf97ccef2849"),
    ("whitewine/dt4/bespoke", "3475e1e3ae2148408b30dd1526cba533"),
    ("whitewine/dt4/lookup-baseline", "fd90a352e9c2604274e4d1d71af482e4"),
    ("whitewine/dt4/lookup-optimized", "42e3c840529558421432075df2844e2e"),
    ("whitewine/dt4/serial", "a815ca4fa69edbc4b97b4c3c32de0a78"),
    ("whitewine/dt8/bespoke", "768d565c5a403b429cadc9176fe8802c"),
    ("whitewine/dt8/lookup-baseline", "40cce09a4606304360c8ec185aef55c0"),
    ("whitewine/dt8/lookup-optimized", "366136a8177f26e8b1813d47755d6a88"),
    ("whitewine/dt8/serial", "7075dbd00e7c296dc960c3bae5ab309a"),
    ("whitewine/svm/bespoke", "d36aa83ab3068ecfcd6c3e82e844a362"),
    ("whitewine/svm/lookup-baseline", "e0bca8e3bc78d3d6a88c74fb40a580d3"),
    ("whitewine/svm/lookup-optimized", "36be883593eb610e925e7d536f764f03"),
    ("whitewine/svm/serial", "957e3ea00c45c38b83ef9e90222f0ae3"),
    ("whitewine/rf1/bespoke", "2cf6e41bcf1e5a977022f5c74cfa7a7a"),
    ("whitewine/rf1/lookup-baseline", "649b1d9f11ac4eb2ec56f96b6254a071"),
    ("whitewine/rf1/lookup-optimized", "bbe2cf5374b7acd840cb272a23d3d726"),
    ("whitewine/rf2/bespoke", "0a5fe1784cc02896137ca6d752e7a940"),
    ("whitewine/rf2/lookup-baseline", "1daef0573f76cd9e959b9a71e614169e"),
    ("whitewine/rf2/lookup-optimized", "a23100bc98bd28d9fd2180ea3e83138e"),
    ("whitewine/rf4/bespoke", "6807b66775581556938f6dc85a866e8c"),
    ("whitewine/rf4/lookup-baseline", "7c05052b6d47d43a432bad2ce0125ca9"),
    ("whitewine/rf4/lookup-optimized", "16193f6cb16399bec7dace7ae1e52b66"),
];

app_test!(
    arrhythmia_generators_are_pinned,
    Application::Arrhythmia,
    ARRHYTHMIA
);
app_test!(cardio_generators_are_pinned, Application::Cardio, CARDIO);
app_test!(gasid_generators_are_pinned, Application::GasId, GASID);
app_test!(har_generators_are_pinned, Application::Har, HAR);
app_test!(
    pendigits_generators_are_pinned,
    Application::Pendigits,
    PENDIGITS
);
app_test!(redwine_generators_are_pinned, Application::RedWine, REDWINE);
app_test!(
    whitewine_generators_are_pinned,
    Application::WhiteWine,
    WHITEWINE
);
