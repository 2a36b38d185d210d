//! Checkpointing: one crash-consistent container, `ORBIT2CKPT v3`, for a
//! model and for the full state of a training run.
//!
//! * [`save_model`] / [`load_model`] — the portable model checkpoint: the
//!   container's first two sections, `config` and `params`. Loading checks
//!   the parameters against the reference layout (names *and* shapes), so a
//!   corrupt or mismatched checkpoint is a recoverable [`std::io::Error`],
//!   never a panic.
//! * [`TrainerCheckpoint`] with [`save_trainer_state`] /
//!   [`load_trainer_state`] — what the fault-tolerant trainer auto-saves:
//!   those two sections, then Adam's moments and step count, the GradScaler
//!   state and the data cursor.
//!
//! Both go through one section writer, one atomic file writer and one
//! reader, and every tensor is stored as its raw IEEE-754 words, so a
//! resumed run is bit-identical to an uninterrupted one and a model holds
//! `-0.0`, NaN payloads, infinities and subnormals exactly. Sections are
//! looked up by name: [`load_model`] reads a trainer checkpoint as that
//! run's model, ignoring the rest, while [`load_trainer_state`] on a model
//! checkpoint is a "missing section" error.
//!
//! ## On-disk container format (version 3)
//!
//! ```text
//! ORBIT2CKPT v3\n
//! section <name> <payload-bytes> <crc32-hex>\n
//! <payload>\n
//! ...one header+payload pair per section...
//! ```
//!
//! Sections, in the order written: `config`, `params` (a model checkpoint
//! ends here), `adam.m`, `adam.v`, `scaler`, `progress`.
//! `config`, `scaler` and `progress` (every counter of the run: step, data
//! cursor, Adam's `t`) are one line of JSON. The other three are *tensor
//! sections*:
//!
//! ```text
//! [["<name>",[<dim>,...]],...]\n      index: JSON, names strictly ascending
//! <f32 little-endian words>           every tensor's elements, index order
//! ```
//!
//! `params` comes straight from the store; `adam.m` / `adam.v` are the
//! optimizer's flat arenas, whose index is the parameters' (or empty before
//! the first optimizer step). The trainer's gradient arena is not saved:
//! every step fills it before the update reads it. The payload is binary —
//! it may contain newlines — so a reader must take `<payload-bytes>` from
//! the header, never scan for the terminator.
//!
//! Every payload carries its own CRC-32 (IEEE), checked before the payload
//! is decoded, and a tensor section's index is checked against the bytes
//! present before anything is allocated for them — a flipped bit or a
//! hostile count is a descriptive error, not undefined behaviour three
//! layers later.
//!
//! A save is crash-consistent: the bytes go to a `*.tmp-<pid>` sibling,
//! which is `sync_all`ed, renamed over the target, and made durable by
//! syncing the parent directory — in that order, so the name never points
//! at bytes that are not on disk, and a crash at any point leaves the
//! previous checkpoint or the new one. A failed save removes the sibling.
//!
//! Earlier formats are not read. Version 2 also saved an open
//! gradient-accumulation window, which this build's trainer does not have.
//! Version 1 stored each tensor section as JSON arrays of decimal
//! bit patterns, and a model checkpoint used to be a directory of JSON
//! float text (5.2x the bytes, and lossy for `-0.0` and non-finite values);
//! numbers for both in DESIGN.md §8. A `v1` or `v2` header gets the
//! unsupported-version error, like any other version this build does not
//! write.

use orbit2_autograd::optim::AdamState;
use orbit2_autograd::scaler::ScalerState;
use orbit2_autograd::{ParamLayout, ParamStore};
use orbit2_model::{ModelConfig, ReslimModel};
use orbit2_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Error, ErrorKind, Result, Write};
use std::path::Path;

/// Build an [`ErrorKind::InvalidData`] error with a descriptive message.
fn invalid(msg: impl Into<String>) -> Error {
    Error::new(ErrorKind::InvalidData, msg.into())
}

/// Check `params` against the reference layout for `cfg`: every expected
/// parameter present with the expected shape, and nothing extra.
pub(crate) fn validate_layout(params: &ParamStore, cfg: ModelConfig) -> Result<()> {
    let reference = ReslimModel::new(cfg, 0);
    for (name, expect) in reference.params.iter() {
        let Some(got) = params.try_get(name) else {
            return Err(invalid(format!("checkpoint missing parameter `{name}`")));
        };
        if got.shape() != expect.shape() {
            return Err(invalid(format!(
                "checkpoint parameter `{name}` has shape {:?}, expected {:?}",
                got.shape(),
                expect.shape()
            )));
        }
    }
    for name in params.names() {
        if !reference.params.contains(&name) {
            return Err(invalid(format!("checkpoint has parameter `{name}` unknown to this architecture")));
        }
    }
    Ok(())
}

/// Magic string opening every checkpoint file.
pub const CHECKPOINT_MAGIC: &str = "ORBIT2CKPT";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Training progress counters captured alongside the weights.
#[derive(Debug, Clone)]
pub struct ProgressState {
    /// Steps completed so far (`Trainer::train` resumes here).
    pub global_step: u64,
    /// Position of the data cursor in the training split.
    pub data_cursor: u64,
}

/// The complete, bit-exact state of a `Trainer` at a step boundary. Every
/// tensor in it is a handle onto the trainer's own storage, so taking one
/// copies nothing.
#[derive(Debug, Clone)]
pub struct TrainerCheckpoint {
    /// Model architecture configuration.
    pub model_cfg: ModelConfig,
    /// Model parameters (fp32 masters).
    pub params: ParamStore,
    /// Adam step count and first/second moment arenas.
    pub adam: AdamState,
    /// Dynamic gradient scaler state.
    pub scaler: ScalerState,
    /// Step and data-cursor counters.
    pub progress: ProgressState,
}

/// The `progress` section: every counter of the run in one small record.
#[derive(Serialize, Deserialize)]
struct Counters {
    global_step: u64,
    data_cursor: u64,
    adam_steps: u64,
}

/// Slice-by-8 tables for [`crc32`]: `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Write one `section <name> <len> <crc32>` header, the payload and its
/// terminating newline.
fn write_section(out: &mut impl Write, name: &str, payload: &[u8]) -> Result<()> {
    out.write_all(format!("section {name} {} {:08x}\n", payload.len(), crc32(payload)).as_bytes())?;
    out.write_all(payload)?;
    out.write_all(b"\n")
}

fn write_json<T: Serialize>(out: &mut impl Write, name: &str, value: &T) -> Result<()> {
    let json = serde_json::to_string(value).map_err(|e| invalid(format!("serializing section `{name}`: {e}")))?;
    write_section(out, name, json.as_bytes())
}

/// Write a tensor section: one JSON line of `(name, shape)` pairs, then
/// every tensor's elements in that order as little-endian `f32` words.
/// `payload` is scratch, reused from section to section.
fn write_tensors(
    out: &mut impl Write,
    payload: &mut Vec<u8>,
    name: &str,
    tensors: &[(&str, &[usize], &[f32])],
) -> Result<()> {
    let index: Vec<(String, Vec<usize>)> =
        tensors.iter().map(|(name, shape, _)| (name.to_string(), shape.to_vec())).collect();
    let index = serde_json::to_string(&index)
        .map_err(|e| invalid(format!("serializing the index of section `{name}`: {e}")))?;
    payload.clear();
    payload.extend_from_slice(index.as_bytes());
    payload.push(b'\n');
    for (_, _, data) in tensors {
        let at = payload.len();
        payload.resize(at + data.len() * 4, 0);
        for (word, x) in payload[at..].chunks_exact_mut(4).zip(data.iter()) {
            word.copy_from_slice(&x.to_le_bytes());
        }
    }
    write_section(out, name, payload)
}

/// Write what every checkpoint opens with: the header line, then the
/// `config` and `params` sections.
fn write_model(out: &mut impl Write, payload: &mut Vec<u8>, cfg: &ModelConfig, params: &ParamStore) -> Result<()> {
    out.write_all(format!("{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\n").as_bytes())?;
    write_json(out, "config", cfg)?;
    let params: Vec<_> = params.iter().map(|(name, t)| (name.as_str(), t.shape(), t.data())).collect();
    write_tensors(out, payload, "params", &params)
}

fn write_trainer_state(ckpt: &TrainerCheckpoint, out: &mut impl Write) -> Result<()> {
    fn arena<'a>(layout: &'a ParamLayout, words: &'a [f32]) -> Vec<(&'a str, &'a [usize], &'a [f32])> {
        layout.entries().iter().map(|e| (e.name(), e.shape(), &words[e.range()])).collect()
    }
    let mut payload = Vec::new();
    write_model(out, &mut payload, &ckpt.model_cfg, &ckpt.params)?;
    write_tensors(out, &mut payload, "adam.m", &arena(&ckpt.adam.layout, ckpt.adam.m.data()))?;
    write_tensors(out, &mut payload, "adam.v", &arena(&ckpt.adam.layout, ckpt.adam.v.data()))?;
    write_json(out, "scaler", &ckpt.scaler)?;
    let counters = Counters {
        global_step: ckpt.progress.global_step,
        data_cursor: ckpt.progress.data_cursor,
        adam_steps: ckpt.adam.steps,
    };
    write_json(out, "progress", &counters)
}

/// Put what `write` produces at `path`, crash-consistently: the bytes go to
/// a unique temp sibling, which is synced, renamed into place, and made
/// durable by syncing the directory that names it. `path` always holds
/// either the previous complete file or the new one, and a failed write
/// leaves no temp file behind.
fn write_atomically(path: &Path, write: impl FnOnce(&mut File) -> Result<()>) -> Result<()> {
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(parent)?;
    let file_name = path
        .file_name()
        .ok_or_else(|| invalid(format!("checkpoint path {} has no file name", path.display())))?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!("{file_name}.tmp-{}", std::process::id()));
    let written = File::create(&tmp)
        .and_then(|mut file| {
            write(&mut file)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path))
        .and_then(|()| File::open(parent)?.sync_all());
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Save a model checkpoint — the `config` and `params` sections — to the
/// file `path`, atomically (see [`save_trainer_state`]).
pub fn save_model(model: &ReslimModel, path: &Path) -> Result<()> {
    write_atomically(path, |file| write_model(file, &mut Vec::new(), &model.cfg, &model.params))
}

/// Save the full trainer state to `path`, crash-consistently: `path` always
/// holds either the previous complete checkpoint or the new one, and a
/// failed save leaves no temp file behind.
pub fn save_trainer_state(ckpt: &TrainerCheckpoint, path: &Path) -> Result<()> {
    write_atomically(path, |file| write_trainer_state(ckpt, file))
}

/// Read one `section <name> <len> <crc>` header + payload starting at
/// `pos`; returns `(name, payload, next_pos)`.
fn parse_section(bytes: &[u8], pos: usize) -> Result<(&str, &[u8], usize)> {
    let line_end = bytes[pos..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| pos + i)
        .ok_or_else(|| invalid("truncated checkpoint: unterminated section header"))?;
    let header = std::str::from_utf8(&bytes[pos..line_end])
        .map_err(|_| invalid("corrupt checkpoint: section header is not UTF-8"))?;
    let parts: Vec<&str> = header.split_whitespace().collect();
    let [kw, name, len, crc] = parts.as_slice() else {
        return Err(invalid(format!("corrupt checkpoint: malformed section header `{header}`")));
    };
    if *kw != "section" {
        return Err(invalid(format!("corrupt checkpoint: expected `section`, found `{kw}`")));
    }
    let len: usize =
        len.parse().map_err(|_| invalid(format!("corrupt checkpoint: bad length in header `{header}`")))?;
    let expect_crc = u32::from_str_radix(crc, 16)
        .map_err(|_| invalid(format!("corrupt checkpoint: bad checksum in header `{header}`")))?;
    let start = line_end + 1;
    // The claimed length is outside input: `end` is the terminator's index,
    // and it must exist.
    let Some(end) = start.checked_add(len).filter(|&end| end < bytes.len()) else {
        return Err(invalid(format!(
            "truncated checkpoint: section `{name}` claims {len} bytes but only {} remain",
            bytes.len() - start
        )));
    };
    if bytes[end] != b'\n' {
        return Err(invalid(format!("corrupt checkpoint: section `{name}` payload is not newline-terminated")));
    }
    let payload = &bytes[start..end];
    let got_crc = crc32(payload);
    if got_crc != expect_crc {
        return Err(invalid(format!(
            "CRC mismatch in section `{name}`: stored {expect_crc:08x}, computed {got_crc:08x}"
        )));
    }
    Ok((name, payload, end + 1))
}

/// Split a tensor section into its index and its words, still as bytes.
/// The index is checked against the bytes that are actually there — sorted
/// unique names, no overflowing shape, and exactly `4 · Σ lens` payload
/// bytes — before anything is allocated for the words.
fn read_tensors<'a>(name: &str, payload: &'a [u8]) -> Result<(ParamLayout, &'a [u8])> {
    let nl = payload
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| invalid(format!("section `{name}` has no index line")))?;
    let index =
        std::str::from_utf8(&payload[..nl]).map_err(|_| invalid(format!("section `{name}` index is not UTF-8")))?;
    let index: Vec<(String, Vec<usize>)> =
        serde_json::from_str(index).map_err(|e| invalid(format!("section `{name}` index failed to parse: {e}")))?;
    let layout = ParamLayout::from_index(index).map_err(|e| invalid(format!("section `{name}`: {e}")))?;
    let words = &payload[nl + 1..];
    if layout.total().checked_mul(4) != Some(words.len()) {
        return Err(invalid(format!(
            "section `{name}` indexes {} elements but holds {} bytes of them",
            layout.total(),
            words.len()
        )));
    }
    Ok((layout, words))
}

/// Little-endian bytes to `f32` words.
fn words(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|w| f32::from_le_bytes([w[0], w[1], w[2], w[3]])).collect()
}

/// A checkpoint file's sections by name, each already checked against its
/// CRC.
struct Sections<'a>(BTreeMap<&'a str, &'a [u8]>);

impl<'a> Sections<'a> {
    /// Check the header line and split what follows into sections.
    fn parse(bytes: &'a [u8]) -> Result<Self> {
        let first_nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| invalid("truncated checkpoint: missing header line"))?;
        let magic_line = std::str::from_utf8(&bytes[..first_nl])
            .map_err(|_| invalid("not an ORBIT2 checkpoint: header is not UTF-8"))?;
        let Some(version_str) =
            magic_line.strip_prefix(CHECKPOINT_MAGIC).and_then(|rest| rest.trim().strip_prefix('v'))
        else {
            return Err(invalid(format!("not an ORBIT2 checkpoint: header `{magic_line}`")));
        };
        let version: u32 = version_str
            .parse()
            .map_err(|_| invalid(format!("not an ORBIT2 checkpoint: bad version `{version_str}`")))?;
        if version != CHECKPOINT_VERSION {
            return Err(invalid(format!(
                "unsupported checkpoint version {version} (this build reads version {CHECKPOINT_VERSION})"
            )));
        }

        let mut sections = BTreeMap::new();
        let mut pos = first_nl + 1;
        while pos < bytes.len() {
            let (name, payload, next) = parse_section(bytes, pos)?;
            if sections.insert(name, payload).is_some() {
                return Err(invalid(format!("corrupt checkpoint: section `{name}` appears twice")));
            }
            pos = next;
        }
        Ok(Self(sections))
    }

    fn get(&self, name: &str) -> Result<&'a [u8]> {
        self.0.get(name).copied().ok_or_else(|| invalid(format!("checkpoint missing section `{name}`")))
    }

    fn json<T: serde::Deserialize>(&self, name: &str) -> Result<T> {
        let text = std::str::from_utf8(self.get(name)?)
            .map_err(|_| invalid(format!("section `{name}` payload is not UTF-8")))?;
        serde_json::from_str(text).map_err(|e| invalid(format!("section `{name}` failed to parse: {e}")))
    }

    fn tensors(&self, name: &str) -> Result<(ParamLayout, &'a [u8])> {
        read_tensors(name, self.get(name)?)
    }

    /// The `config` and `params` sections, as stored: the caller that makes
    /// a model of them runs [`validate_layout`].
    fn model(&self) -> Result<(ModelConfig, ParamLayout, ParamStore)> {
        let (layout, bytes) = self.tensors("params")?;
        let mut params = ParamStore::new();
        for e in layout.entries() {
            let range = e.range();
            let data = words(&bytes[4 * range.start..4 * range.end]);
            params.insert(e.name(), Tensor::from_vec(e.shape().to_vec(), data));
        }
        Ok((self.json("config")?, layout, params))
    }
}

/// Load the model from a checkpoint written by [`save_model`] or by
/// [`save_trainer_state`], validating the parameter set (names and shapes)
/// against a freshly-initialized reference layout. Truncation, a flipped
/// byte, a missing section or parameter, an index that disagrees with its
/// bytes, or an unknown version each produce a descriptive
/// [`ErrorKind::InvalidData`] error, never a panic.
pub fn load_model(path: &Path) -> Result<ReslimModel> {
    let bytes = std::fs::read(path)?;
    let (cfg, _, params) = Sections::parse(&bytes)?.model()?;
    validate_layout(&params, cfg)?;
    Ok(ReslimModel { cfg, params })
}

/// Load a full trainer state saved by [`save_trainer_state`]; malformed
/// input fails as in [`load_model`]. The parameters come back as stored
/// ([`crate::trainer::Trainer::resume`] validates them).
pub fn load_trainer_state(path: &Path) -> Result<TrainerCheckpoint> {
    let bytes = std::fs::read(path)?;
    let sections = Sections::parse(&bytes)?;
    let counters: Counters = sections.json("progress")?;
    let (model_cfg, layout, params) = sections.model()?;

    // Moments are laid out over the parameters, or absent before the first
    // optimizer step.
    let moment = |name: &str| {
        let (index, bytes) = sections.tensors(name)?;
        if !index.is_empty() && index != layout {
            return Err(invalid(format!("section `{name}` is not laid out over the parameters")));
        }
        let arena = Tensor::from_vec(vec![index.total()], words(bytes));
        Ok((index, arena))
    };
    let (adam_layout, m) = moment("adam.m")?;
    let (v_layout, v) = moment("adam.v")?;
    if v_layout != adam_layout {
        return Err(invalid("sections `adam.m` and `adam.v` index different tensors"));
    }

    Ok(TrainerCheckpoint {
        model_cfg,
        params,
        adam: AdamState { steps: counters.adam_steps, layout: adam_layout, m, v },
        scaler: sections.json("scaler")?,
        progress: ProgressState { global_step: counters.global_step, data_cursor: counters.data_cursor },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_model::ModelConfig;
    use orbit2_tensor::Tensor;

    /// The bitwise loop `crc32` replaced, kept as its oracle.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_oracle_at_every_length_and_alignment() {
        let mut rng = proptest::TestRng::new(0xC4C);
        let buf: Vec<u8> = (0..4099 + 8).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=4099 {
            let offset = len % 8;
            let data = &buf[offset..offset + len];
            assert_eq!(crc32(data), crc32_bitwise(data), "len {len} offset {offset}");
        }
        for offset in 0..8 {
            for len in [0, 1, 7, 8, 9, 63, 64, 65, 4099] {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "len {len} offset {offset}");
            }
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("orbit2_ckpt_{name}_{}", std::process::id()))
    }

    fn bits(data: &[f32]) -> Vec<u32> {
        data.iter().map(|x| x.to_bits()).collect()
    }

    /// Values JSON floats cannot carry and a text format would mangle.
    fn awkward(len: usize, salt: u32) -> Vec<f32> {
        let specials = [
            f32::NAN,
            f32::from_bits(0x7FC0_1234),
            f32::from_bits(0xFFA5_5AA5),
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            1.0e-41,
            f32::from_bits(1),
            f32::from_bits(0x0A0A_0A0A), // four newline bytes
        ];
        (0..len)
            .map(|i| match specials.get(i % 11) {
                Some(x) => *x,
                None => f32::from_bits((i as u32).wrapping_mul(2_654_435_761) ^ salt),
            })
            .collect()
    }

    /// A checkpoint over the tiny model with awkward bit patterns in every
    /// arena.
    fn awkward_checkpoint() -> TrainerCheckpoint {
        let model = ReslimModel::new(ModelConfig::tiny().with_channels(4, 3), 12);
        let mut params = ParamStore::new();
        for (i, (name, t)) in model.params.iter().enumerate() {
            params.insert(name.clone(), Tensor::from_vec(t.shape().to_vec(), awkward(t.len(), i as u32)));
        }
        let layout = ParamLayout::of(&params);
        let total = layout.total();
        TrainerCheckpoint {
            model_cfg: model.cfg,
            params,
            adam: AdamState {
                steps: 7,
                m: Tensor::from_vec(vec![total], awkward(total, 0xAAAA)),
                v: Tensor::from_vec(vec![total], awkward(total, 0x5555)),
                layout,
            },
            scaler: orbit2_autograd::GradScaler::new(512.0).export_state(),
            progress: ProgressState { global_step: 22, data_cursor: 44 },
        }
    }

    /// The awkward checkpoint's model: what `save_model` is handed.
    fn awkward_model() -> ReslimModel {
        let ckpt = awkward_checkpoint();
        ReslimModel { cfg: ckpt.model_cfg, params: ckpt.params }
    }

    /// The error a malformed checkpoint must load as: `InvalidData`, always.
    fn rejected<T>(loaded: Result<T>) -> Error {
        let err = loaded.err().expect("a malformed checkpoint must be rejected");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        err
    }

    /// Save `model`, whatever its store holds, and load it back.
    fn load_saved(name: &str, model: &ReslimModel) -> Error {
        let path = scratch(name);
        save_model(model, &path).unwrap();
        let err = rejected(load_model(&path));
        std::fs::remove_file(&path).unwrap();
        err
    }

    #[test]
    fn model_round_trips_every_bit_pattern() {
        // -0.0, NaNs with payloads, infinities, subnormals: what float text
        // printed as `0` and `null`.
        let model = awkward_model();
        let path = scratch("awkward_model");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.cfg, model.cfg);
        assert_eq!(loaded.params.names(), model.params.names());
        for (name, t) in model.params.iter() {
            assert_eq!(loaded.params.get(name).shape(), t.shape());
            assert_eq!(bits(loaded.params.get(name).data()), bits(t.data()), "parameter {name}");
        }
    }

    #[test]
    fn model_checkpoint_is_the_first_two_sections_of_a_trainer_checkpoint() {
        let (model_path, trainer_path) = (scratch("prefix_model"), scratch("prefix_trainer"));
        save_model(&awkward_model(), &model_path).unwrap();
        save_trainer_state(&awkward_checkpoint(), &trainer_path).unwrap();
        let model_bytes = std::fs::read(&model_path).unwrap();
        let trainer_bytes = std::fs::read(&trainer_path).unwrap();
        std::fs::remove_file(&model_path).unwrap();
        std::fs::remove_file(&trainer_path).unwrap();
        let names: Vec<String> = sections_of(&model_bytes).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["config", "params"]);
        assert!(trainer_bytes.starts_with(&model_bytes), "one writer, one byte stream");
    }

    #[test]
    fn loaded_model_predicts_identically() {
        use orbit2_autograd::Tape;
        use orbit2_model::binder::Binder;
        use orbit2_tensor::random::randn;
        let path = scratch("predicts");
        let model = ReslimModel::new(ModelConfig::tiny().with_channels(4, 3), 8);
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.num_params(), model.num_params());
        let input = randn(&[4, 8, 8], 1);
        let run = |m: &ReslimModel| {
            let tape = Tape::new();
            let binder = Binder::new(&tape, &m.params);
            m.forward(&binder, &input, 1.0).0.value()
        };
        run(&model).assert_close(&run(&loaded), 0.0);
    }

    #[test]
    fn missing_parameter_is_an_error_not_a_panic() {
        let mut model = awkward_model();
        let full = std::mem::take(&mut model.params);
        for (name, t) in full.iter().filter(|(name, _)| *name != "xattn.wq") {
            model.params.insert(name.clone(), t.clone());
        }
        let err = load_saved("missing_param", &model);
        assert!(err.to_string().contains("missing parameter `xattn.wq`"), "unhelpful error: {err}");
    }

    #[test]
    fn wrong_parameter_shape_is_an_error_not_a_panic() {
        let mut model = awkward_model();
        model.params.insert("xattn.wq", Tensor::zeros(vec![2, 2]));
        let err = load_saved("bad_shape", &model);
        assert!(err.to_string().contains("`xattn.wq` has shape [2, 2]"), "unhelpful error: {err}");
    }

    #[test]
    fn unknown_extra_parameter_is_an_error() {
        let mut model = awkward_model();
        model.params.insert("rogue.weight", Tensor::zeros(vec![3]));
        let err = load_saved("extra_param", &model);
        assert!(err.to_string().contains("`rogue.weight` unknown"), "unhelpful error: {err}");
    }

    #[test]
    fn trainer_state_round_trips_every_bit_pattern() {
        let ckpt = awkward_checkpoint();
        let path = scratch("awkward");
        save_trainer_state(&ckpt, &path).unwrap();
        let back = load_trainer_state(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        assert_eq!(back.model_cfg, ckpt.model_cfg);
        assert_eq!(back.params.names(), ckpt.params.names());
        for (name, t) in ckpt.params.iter() {
            assert_eq!(back.params.get(name).shape(), t.shape());
            assert_eq!(bits(back.params.get(name).data()), bits(t.data()), "parameter {name}");
        }
        assert_eq!(back.adam.steps, 7);
        assert_eq!(back.adam.layout, ckpt.adam.layout);
        assert_eq!(bits(back.adam.m.data()), bits(ckpt.adam.m.data()));
        assert_eq!(bits(back.adam.v.data()), bits(ckpt.adam.v.data()));
        assert_eq!(back.scaler.scale_bits, ckpt.scaler.scale_bits);
        assert_eq!((back.progress.global_step, back.progress.data_cursor), (22, 44));
    }

    #[test]
    fn unstepped_optimizer_saves_as_empty_sections() {
        let mut ckpt = awkward_checkpoint();
        ckpt.adam = orbit2_autograd::Adam::new(1e-3).export_state();
        let path = scratch("empty_sections");
        save_trainer_state(&ckpt, &path).unwrap();
        let back = load_trainer_state(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(back.adam.layout.is_empty() && back.adam.m.is_empty() && back.adam.v.is_empty());
    }

    /// The `(name, payload)` sections of a checkpoint file.
    fn sections_of(bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
        let mut pos = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut out = Vec::new();
        while pos < bytes.len() {
            let (name, payload, next) = parse_section(bytes, pos).unwrap();
            out.push((name.to_string(), payload.to_vec()));
            pos = next;
        }
        out
    }

    /// Save the awkward checkpoint, replace one section's payload (under a
    /// correct CRC, so only the decoder can object) and `load` the result.
    fn load_with_section<T>(load: fn(&Path) -> Result<T>, name: &str, payload: &[u8]) -> Error {
        let path = scratch(&format!("hostile_{name}_{}", crc32(payload)));
        save_trainer_state(&awkward_checkpoint(), &path).unwrap();
        let mut file = format!("{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\n").into_bytes();
        for (section, original) in sections_of(&std::fs::read(&path).unwrap()) {
            let payload = if section == name { payload } else { &original };
            write_section(&mut file, &section, payload).unwrap();
        }
        std::fs::write(&path, file).unwrap();
        let err = rejected(load(&path));
        std::fs::remove_file(&path).unwrap();
        err
    }

    /// A section both loaders decode must fail both the same way.
    fn load_either_with_section(name: &str, payload: &[u8]) -> Error {
        let err = load_with_section(load_trainer_state, name, payload);
        assert_eq!(load_with_section(load_model, name, payload).to_string(), err.to_string());
        err
    }

    #[test]
    fn section_length_that_overflows_is_a_truncation_error() {
        let path = scratch("len_overflow");
        let header = format!("{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\n");
        std::fs::write(&path, format!("{header}section params {} 00000000\nxx\n", usize::MAX)).unwrap();
        let err = rejected(load_trainer_state(&path));
        assert_eq!(rejected(load_model(&path)).to_string(), err.to_string());
        std::fs::remove_file(&path).unwrap();
        assert!(err.to_string().contains("truncated checkpoint"), "wrong error: {err}");
    }

    #[test]
    fn tensor_index_is_validated_against_the_bytes_present_before_allocating() {
        // A shape whose product overflows usize.
        let err = load_either_with_section("params", b"[[\"a\",[4294967296,4294967296,4294967296]]]\n");
        assert!(err.to_string().contains("overflows"), "wrong error: {err}");
        // Shapes whose sum does.
        let huge = format!("[[\"a\",[{0}]],[\"b\",[{0}]]]\n", usize::MAX / 2 + 1);
        let err = load_either_with_section("params", huge.as_bytes());
        assert!(err.to_string().contains("past usize"), "wrong error: {err}");
        // A claimed terabyte backed by eight bytes: rejected on the length,
        // never allocated.
        let err = load_either_with_section("params", b"[[\"a\",[250000000000]]]\n12345678");
        assert!(err.to_string().contains("holds 8 bytes"), "wrong error: {err}");
        let err = load_with_section(load_trainer_state, "adam.m", b"[[\"a\",[250000000000]]]\n12345678");
        assert!(err.to_string().contains("holds 8 bytes"), "wrong error: {err}");
        // One word short.
        let err = load_either_with_section("params", b"[[\"a\",[3]]]\n12345678");
        assert!(err.to_string().contains("indexes 3 elements"), "wrong error: {err}");
        // No index line at all.
        let err = load_with_section(load_trainer_state, "adam.m", b"[]");
        assert!(err.to_string().contains("no index line"), "wrong error: {err}");
    }

    #[test]
    fn duplicate_and_unknown_tensor_names_are_rejected() {
        let err = load_either_with_section("params", b"[[\"a\",[1]],[\"a\",[1]]]\n12345678");
        assert!(err.to_string().contains("duplicated or out of order"), "wrong error: {err}");
        let err = load_with_section(load_trainer_state, "adam.v", b"[[\"rogue.weight\",[2]]]\n12345678");
        assert!(err.to_string().contains("not laid out over the parameters"), "wrong error: {err}");
    }

    #[test]
    fn config_that_does_not_parse_names_its_section() {
        let err = load_either_with_section("config", b"{not valid json");
        assert!(err.to_string().contains("section `config` failed to parse"), "wrong error: {err}");
    }

    #[test]
    fn failed_save_leaves_no_temp_file_behind() {
        type Save<'a> = &'a dyn Fn(&Path) -> Result<()>;
        let (model, ckpt) = (awkward_model(), awkward_checkpoint());
        let saves: [(&str, Save); 2] =
            [("model", &|path| save_model(&model, path)), ("trainer", &|path| save_trainer_state(&ckpt, path))];
        for (what, save) in saves {
            // The target is a non-empty directory, so the final rename fails.
            let dir = scratch(&format!("save_fails_{what}"));
            let target = dir.join("state.ckpt");
            std::fs::create_dir_all(target.join("occupied")).unwrap();
            let err = save(&target).expect_err("rename onto a directory");
            assert_ne!(err.kind(), ErrorKind::InvalidData, "an I/O error, not a format error: {err}");
            let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
            assert_eq!(left, ["state.ckpt"], "{what} save left its temp file behind");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
