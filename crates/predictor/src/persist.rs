//! Saving and loading trained MLP duration models.
//!
//! A serving node trains offline (§5.4: ~42 hours of profiling on the real
//! system) and loads the frozen model at start-up; §7.8 reports the model
//! occupies ≈ 14 kB. The format is a tiny self-describing text file —
//! header lines with dimensions and target scaling, then one parameter per
//! line — so the artifact is inspectable and diffable.

use crate::conformal::{ConformalModel, StratifiedConformal};
use crate::features::MAX_COLOCATED;
use crate::mlp::{Mlp, QuantileMlp};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Magic first line of the format.
const MAGIC: &str = "abacus-mlp-v1";

/// Magic first line of the quantile-heads format.
const QMAGIC: &str = "abacus-qmlp-v1";

/// Magic first line of the conformal-certifier format.
const CMAGIC: &str = "abacus-conf-v1";

/// Serialise an MLP to a string.
pub fn to_string(mlp: &Mlp) -> String {
    net_to_string(
        MAGIC,
        &mlp.dims(),
        None,
        mlp.target_scaling(),
        &mlp.raw_params(),
    )
}

/// Parse an MLP from the [`to_string`] format.
pub fn from_str(s: &str) -> Result<Mlp, String> {
    let net = parse_net(s, MAGIC, false)?;
    Mlp::from_raw(&net.dims, &net.params, net.y_mean, net.y_std)
}

/// Save to a file, creating parent directories.
pub fn save(mlp: &Mlp, path: impl AsRef<Path>) -> io::Result<()> {
    write_artifact(path.as_ref(), &to_string(mlp))
}

/// Load from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Mlp, String> {
    let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
    from_str(&text)
}

/// Load a cached model from `path`, falling back to `build` on *any*
/// failure — missing file, bad magic, truncation, corrupt parameters. The
/// boolean reports whether the cache was hit, so callers can log and
/// decide whether to re-save.
pub fn load_or_else(path: impl AsRef<Path>, build: impl FnOnce() -> Mlp) -> (Mlp, bool) {
    match load(path) {
        Ok(m) => (m, true),
        Err(_) => (build(), false),
    }
}

/// Serialise one network: the magic line, the dims line, the quantile
/// levels line (heads only), the target scaling line, then one parameter
/// per line. The mean model and the quantile heads differ only in the
/// magic and the levels line.
fn net_to_string(
    magic: &str,
    dims: &[usize],
    taus: Option<&[f64]>,
    (y_mean, y_std): (f64, f64),
    params: &[f64],
) -> String {
    let mut out = String::new();
    out.push_str(magic);
    out.push('\n');
    out.push_str(
        &dims
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.push('\n');
    if let Some(taus) = taus {
        out.push_str(
            &taus
                .iter()
                .map(|t| format!("{t:e}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        out.push('\n');
    }
    out.push_str(&format!("{y_mean:e} {y_std:e}\n"));
    for p in params {
        out.push_str(&format!("{p:e}\n"));
    }
    out
}

/// The fields of one serialised network, as [`net_to_string`] wrote them.
struct RawNet {
    dims: Vec<usize>,
    /// Empty unless the format carries quantile levels.
    taus: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    params: Vec<f64>,
}

/// Parse one network written by [`net_to_string`] under `magic`, with a
/// quantile levels line when `has_taus`.
fn parse_net(s: &str, magic: &str, has_taus: bool) -> Result<RawNet, String> {
    let mut lines = s.lines();
    match lines.next() {
        Some(l) if l == magic => {}
        other => return Err(format!("bad magic: {other:?}")),
    }
    let dims: Vec<usize> = lines
        .next()
        .ok_or("missing dims line")?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| format!("bad dim: {e}")))
        .collect::<Result<_, String>>()?;
    let taus = if has_taus {
        parse_f64_line(lines.next().ok_or("missing taus line")?, "tau")?
    } else {
        Vec::new()
    };
    let scaling = parse_f64_line(lines.next().ok_or("missing scaling line")?, "scaling")?;
    let [y_mean, y_std] = scaling[..] else {
        return Err("scaling line needs y_mean and y_std".into());
    };
    let params: Vec<f64> = lines
        .map(|l| l.trim().parse().map_err(|e| format!("bad param: {e}")))
        .collect::<Result<_, String>>()?;
    Ok(RawNet {
        dims,
        taus,
        y_mean,
        y_std,
        params,
    })
}

/// Parse one whitespace-separated line of `f64`s.
fn parse_f64_line(line: &str, what: &str) -> Result<Vec<f64>, String> {
    line.split_whitespace()
        .map(|t| t.parse().map_err(|e| format!("bad {what}: {e}")))
        .collect()
}

/// Serialise quantile heads: the [`to_string`] layout under their own
/// magic, plus the levels line. Stored only inside the conformal artifact.
fn quantile_to_string(q: &QuantileMlp) -> String {
    net_to_string(
        QMAGIC,
        &q.dims(),
        Some(q.taus()),
        q.target_scaling(),
        &q.raw_params(),
    )
}

/// Parse quantile heads from the [`quantile_to_string`] format.
fn quantile_from_str(s: &str) -> Result<QuantileMlp, String> {
    let net = parse_net(s, QMAGIC, true)?;
    QuantileMlp::from_raw(&net.dims, &net.params, net.y_mean, net.y_std, net.taus)
}

/// Serialise a conformal certifier to a string: magic, certification
/// alpha, the per-width-stratum calibration table (counts, one correction
/// row per stratum, the pooled row), then the embedded quantile heads in
/// the [`quantile_to_string`] layout. One self-contained artifact — the
/// certifier never loads half-matched heads and table.
pub fn conformal_to_string(model: &ConformalModel) -> String {
    let conf = model.conformal();
    let mut out = String::new();
    out.push_str(CMAGIC);
    out.push('\n');
    out.push_str(&format!("{:e}\n", model.alpha()));
    let counts: Vec<String> = (1..=MAX_COLOCATED)
        .map(|w| conf.stratum_count(w).to_string())
        .collect();
    out.push_str(&counts.join(" "));
    out.push('\n');
    let n_heads = conf.taus().len();
    for w in 1..=MAX_COLOCATED {
        let row: Vec<String> = (0..n_heads)
            .map(|h| format!("{:e}", conf.correction(w, h)))
            .collect();
        out.push_str(&row.join(" "));
        out.push('\n');
    }
    let pooled: Vec<String> = (0..n_heads)
        .map(|h| format!("{:e}", conf.pooled_correction(h)))
        .collect();
    out.push_str(&pooled.join(" "));
    out.push('\n');
    out.push_str(&quantile_to_string(model.heads()));
    out
}

/// Parse a conformal certifier from the [`conformal_to_string`] format.
pub fn conformal_from_str(s: &str) -> Result<ConformalModel, String> {
    let mut lines = s.lines();
    match lines.next() {
        Some(l) if l == CMAGIC => {}
        other => return Err(format!("bad magic: {other:?}")),
    }
    let alpha: f64 = lines
        .next()
        .ok_or("missing alpha line")?
        .trim()
        .parse()
        .map_err(|e| format!("bad alpha: {e}"))?;
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(format!("alpha {alpha} outside (0, 1)"));
    }
    let counts: Vec<usize> = lines
        .next()
        .ok_or("missing counts line")?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| format!("bad count: {e}")))
        .collect::<Result<_, String>>()?;
    let mut corrections = Vec::with_capacity(MAX_COLOCATED);
    for w in 1..=MAX_COLOCATED {
        corrections.push(parse_f64_line(
            lines
                .next()
                .ok_or_else(|| format!("missing correction row for width {w}"))?,
            "correction",
        )?);
    }
    let pooled = parse_f64_line(
        lines.next().ok_or("missing pooled row")?,
        "pooled correction",
    )?;
    let rest: Vec<&str> = lines.collect();
    let heads = quantile_from_str(&rest.join("\n"))?;
    let conf = StratifiedConformal::from_parts(heads.taus().to_vec(), counts, corrections, pooled)?;
    ConformalModel::from_parts(heads, conf, alpha)
}

/// Save a conformal certifier to a file, creating parent directories.
pub fn save_conformal(model: &ConformalModel, path: impl AsRef<Path>) -> io::Result<()> {
    write_artifact(path.as_ref(), &conformal_to_string(model))
}

/// Load a conformal certifier from a file.
pub fn load_conformal(path: impl AsRef<Path>) -> Result<ConformalModel, String> {
    let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
    conformal_from_str(&text)
}

/// Write one artifact file, creating parent directories.
fn write_artifact(path: &Path, text: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut f = fs::File::create(path)?;
    f.write_all(text.as_bytes())
}

/// Path of the sidecar holding the calibrated prediction-round latency for
/// the model at `model_path`: same stem, `.round_ms` extension.
pub fn round_ms_path(model_path: impl AsRef<Path>) -> PathBuf {
    model_path.as_ref().with_extension("round_ms")
}

/// Write the round-latency sidecar next to `model_path`, creating parent
/// directories.
pub fn save_round_ms(model_path: impl AsRef<Path>, round_ms: f64) -> io::Result<()> {
    let path = round_ms_path(model_path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, format!("{round_ms}\n"))
}

/// Read the round-latency sidecar next to `model_path`. `None` unless the
/// file exists and parses to a finite positive number — a corrupt sidecar
/// degrades to recalibration, never to a poisoned config.
pub fn load_round_ms(model_path: impl AsRef<Path>) -> Option<f64> {
    fs::read_to_string(round_ms_path(model_path))
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::mlp::MlpConfig;
    use crate::LatencyModel;

    fn tiny_mlp() -> Mlp {
        let mut d = Dataset::new();
        for i in 0..50 {
            let x = i as f64 / 50.0;
            d.push(vec![x, 1.0 - x], 5.0 + x);
        }
        Mlp::train(
            &d,
            &MlpConfig {
                epochs: 5,
                hidden: vec![8, 8],
                ..MlpConfig::default()
            },
        )
    }

    #[test]
    fn string_roundtrip_is_exact() {
        let mlp = tiny_mlp();
        let text = to_string(&mlp);
        let back = from_str(&text).unwrap();
        let x = [0.3, 0.7];
        assert_eq!(mlp.predict_one(&x), back.predict_one(&x));
    }

    #[test]
    fn file_roundtrip() {
        let mlp = tiny_mlp();
        let path = std::env::temp_dir().join("abacus_persist_test/model.mlp");
        save(&mlp, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(mlp.predict_one(&[0.5, 0.5]), back.predict_one(&[0.5, 0.5]));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn corrupt_input_rejected() {
        assert!(from_str("nonsense").is_err());
        let mlp = tiny_mlp();
        let mut text = to_string(&mlp);
        text.push_str("1.0\n"); // extra parameter
        assert!(from_str(&text).is_err());
        let truncated: String = to_string(&mlp)
            .lines()
            .take(5)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(from_str(&truncated).is_err());
        // A zero-width layer would divide every row into empty chunks.
        assert!(from_str(&format!("{MAGIC}\n0 1\n0e0 1e0\n0e0\n")).is_err());
    }

    #[test]
    fn model_and_sidecar_roundtrip() {
        let mlp = tiny_mlp();
        let dir = std::env::temp_dir().join("abacus_persist_sidecar_test");
        let model_path = dir.join("model.mlp");
        save(&mlp, &model_path).unwrap();
        save_round_ms(&model_path, 0.0625).unwrap();
        assert_eq!(round_ms_path(&model_path), dir.join("model.round_ms"));
        let back = load(&model_path).unwrap();
        assert_eq!(mlp.predict_one(&[0.2, 0.8]), back.predict_one(&[0.2, 0.8]));
        assert_eq!(load_round_ms(&model_path), Some(0.0625));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_sidecar_degrades_to_none() {
        let dir = std::env::temp_dir().join("abacus_persist_badsidecar_test");
        let model_path = dir.join("model.mlp");
        // Missing sidecar.
        assert_eq!(load_round_ms(&model_path), None);
        // Unparsable, non-finite and non-positive values.
        for bad in ["garbage", "NaN", "inf", "-1.5", "0"] {
            save_round_ms(&model_path, 1.0).unwrap();
            std::fs::write(round_ms_path(&model_path), bad).unwrap();
            assert_eq!(load_round_ms(&model_path), None, "sidecar {bad:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_else_retrains_on_missing_or_corrupt_cache() {
        let dir = std::env::temp_dir().join("abacus_persist_load_or_else_test");
        let path = dir.join("model.mlp");
        let fresh = tiny_mlp();

        // Missing cache: build runs.
        let (m, cached) = load_or_else(&path, || fresh.clone());
        assert!(!cached);
        assert_eq!(m, fresh);

        // Intact cache: build must not run.
        save(&fresh, &path).unwrap();
        let (m, cached) = load_or_else(&path, || unreachable!("cache was intact"));
        assert!(cached);
        assert_eq!(m.predict_one(&[0.4, 0.6]), fresh.predict_one(&[0.4, 0.6]));

        // Truncated cache: graceful retrain instead of a parse panic.
        let full = to_string(&fresh);
        let truncated: String = full.lines().take(8).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, truncated).unwrap();
        let (_, cached) = load_or_else(&path, || fresh.clone());
        assert!(!cached);

        // Corrupted parameter line: same.
        let corrupted = full + "not-a-number\n";
        std::fs::write(&path, corrupted).unwrap();
        let (_, cached) = load_or_else(&path, || fresh.clone());
        assert!(!cached);

        std::fs::remove_dir_all(&dir).ok();
    }

    use crate::conformal::ConformalModel;
    use crate::mlp::QuantileMlp;
    use workload::SeededRng;

    fn tiny_certifier() -> ConformalModel {
        let mut rng = SeededRng::new(13);
        let mut d = Dataset::new();
        for _ in 0..300 {
            let x = rng.f64();
            let y = 5.0 + 3.0 * x + 0.5 * rng.normal();
            d.push(vec![x, 1.0 - x], y.max(0.1));
        }
        let mut split_rng = SeededRng::new(2);
        let (fit, calib) = d.split(0.7, &mut split_rng);
        let heads = QuantileMlp::train(
            &fit,
            &MlpConfig {
                epochs: 5,
                hidden: vec![8, 8],
                ..MlpConfig::default()
            },
            &crate::conformal::CERT_TAUS,
        );
        ConformalModel::calibrate(heads, &calib, 0.05)
    }

    #[test]
    fn quantile_roundtrip_is_exact() {
        let cert = tiny_certifier();
        let q = cert.heads();
        let back = quantile_from_str(&quantile_to_string(q)).unwrap();
        assert_eq!(&back, q);
        for i in 0..10 {
            let x = [i as f64 / 10.0, 1.0 - i as f64 / 10.0];
            assert_eq!(q.predict_quantiles_one(&x), back.predict_quantiles_one(&x));
        }
    }

    #[test]
    fn conformal_roundtrip_is_exact() {
        let cert = tiny_certifier();
        let path = std::env::temp_dir().join("abacus_persist_conf_test/model.conf");
        save_conformal(&cert, &path).unwrap();
        let back = load_conformal(&path).unwrap();
        assert_eq!(back.alpha(), cert.alpha());
        assert_eq!(back.conformal(), cert.conformal());
        for i in 0..10 {
            let x = [i as f64 / 10.0, 1.0 - i as f64 / 10.0];
            assert_eq!(cert.predict_one(&x), back.predict_one(&x));
            assert_eq!(cert.upper_bounds_one(&x), back.upper_bounds_one(&x));
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// The corrupt-cache cases for the heads section of the conformal
    /// artifact — the only place quantile heads are stored: each must fail
    /// the load (so the caller retrains) instead of panicking or
    /// half-loading.
    #[test]
    fn corrupt_quantile_cache_degrades_to_retrain() {
        let dir = std::env::temp_dir().join("abacus_persist_qmlp_corrupt_test");
        let path = dir.join("cert.conf");
        let fresh = tiny_certifier();
        save_conformal(&fresh, &path).unwrap();
        assert!(load_conformal(&path).is_ok());
        let full = conformal_to_string(&fresh);
        let heads = quantile_to_string(fresh.heads());
        let table = &full[..full.len() - heads.len()];

        // A stale *mean-model* artifact in the heads section.
        std::fs::write(&path, format!("{table}{}", to_string(&tiny_mlp()))).unwrap();
        assert!(load_conformal(&path).is_err(), "mean model loaded as heads");

        // Truncated heads.
        let truncated: String = heads.lines().take(6).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, format!("{table}{truncated}")).unwrap();
        assert!(load_conformal(&path).is_err(), "truncated heads loaded");

        // A non-numeric parameter.
        std::fs::write(&path, format!("{full}not-a-number\n")).unwrap();
        assert!(load_conformal(&path).is_err(), "corrupt parameter loaded");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_conformal_cache_degrades_to_recalibrate() {
        let dir = std::env::temp_dir().join("abacus_persist_conf_corrupt_test");
        let path = dir.join("cert.conf");
        let fresh = tiny_certifier();

        // Missing cache.
        assert!(load_conformal(&path).is_err());

        // Intact cache.
        save_conformal(&fresh, &path).unwrap();
        assert_eq!(load_conformal(&path).unwrap(), fresh);

        // Truncated mid-table, truncated mid-heads, corrupted heads magic.
        let full = conformal_to_string(&fresh);
        for keep in [3, 8] {
            let truncated: String = full.lines().take(keep).collect::<Vec<_>>().join("\n");
            std::fs::write(&path, truncated).unwrap();
            assert!(
                load_conformal(&path).is_err(),
                "truncation at line {keep} must miss the cache"
            );
        }
        let corrupted = full.replacen("abacus-qmlp-v1", "abacus-qmlp-v9", 1);
        std::fs::write(&path, corrupted).unwrap();
        assert!(load_conformal(&path).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A mean model has one output. A well-formed net with a wider last
    /// layer must not load as one: it would report `[2, 1]` dims and
    /// predict a different head alone than inside a batch.
    #[test]
    fn multi_output_artifact_is_not_a_mean_model() {
        let params: Vec<String> = (1..=9).map(|p| format!("{p:e}")).collect();
        let wide = format!("{MAGIC}\n2 3\n1e1 1e0\n{}\n", params.join("\n"));
        let err = from_str(&wide).unwrap_err();
        assert!(err.contains("one output"), "{err}");
        // The same parameters reshaped to a one-output net load, and its
        // dims read the last layer's width.
        let narrow = format!("{MAGIC}\n2 2 1\n1e1 1e0\n{}\n", params.join("\n"));
        let mlp = from_str(&narrow).unwrap();
        assert_eq!(mlp.dims(), vec![2, 2, 1]);
        assert_eq!(to_string(&mlp), narrow);
    }

    /// Every committed model artifact loads and re-serialises byte for
    /// byte, so the on-disk format is stable.
    #[test]
    fn committed_model_artifacts_roundtrip_byte_for_byte() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/models");
        let mut checked = 0;
        for entry in fs::read_dir(&dir).expect("results/models is committed") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "mlp") {
                let text = fs::read_to_string(&path).unwrap();
                let mlp = from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert!(
                    to_string(&mlp) == text,
                    "{} did not round-trip",
                    path.display()
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no .mlp artifacts under {}", dir.display());
    }
}
