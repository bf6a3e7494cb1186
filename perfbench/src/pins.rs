//! The output oracle: every job's fingerprint, pinned from the current code
//! in `expected/pins.json`.
//!
//! A job counts as wrong when its record is unverified, when it has no pin,
//! or when any pinned field differs.

use crate::pipeline::Fingerprint;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Pinned fingerprints by job key.
#[derive(Debug, Clone, Default)]
pub struct Pins {
    map: BTreeMap<String, Fingerprint>,
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::UInt(u) => Some(*u),
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Float(x) => Some(*x),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn as_hex(value: &Value) -> Option<u64> {
    match value {
        Value::Str(s) => u64::from_str_radix(s, 16).ok(),
        _ => None,
    }
}

fn parse_pin(value: &Value) -> Option<Fingerprint> {
    Some(Fingerprint {
        n: field(value, "n").and_then(as_u64)?,
        node_averaged: field(value, "node_averaged").and_then(as_f64)?,
        worst_case: field(value, "worst_case").and_then(as_u64)?,
        labels_fnv: field(value, "labels_fnv").and_then(as_hex)?,
        rounds_fnv: field(value, "rounds_fnv").and_then(as_hex)?,
    })
}

impl Pins {
    /// Reads a pins file.
    ///
    /// # Errors
    ///
    /// Unreadable file, or the errors of [`Pins::parse`].
    pub fn load(path: &Path) -> Result<Pins, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read pins {}: {e}", path.display()))?;
        Pins::parse(&text)
    }

    /// Parses the text of a pins file.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a malformed entry.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let value = serde_json::from_str(text).map_err(|e| format!("pins: {e:?}"))?;
        let Value::Object(entries) = value else {
            return Err("pins: expected an object".into());
        };
        let mut map = BTreeMap::new();
        for (key, entry) in entries {
            let pin = parse_pin(&entry).ok_or_else(|| format!("pins: malformed entry `{key}`"))?;
            map.insert(key, pin);
        }
        Ok(Pins { map })
    }

    /// Adds or replaces a pin.
    pub fn insert(&mut self, key: String, pin: Fingerprint) {
        self.map.insert(key, pin);
    }

    /// Number of pins.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Checks an output against its pin.
    ///
    /// # Errors
    ///
    /// Names the missing pin or the first differing field.
    pub fn check(&self, key: &str, got: &Fingerprint) -> Result<(), String> {
        let want = self
            .map
            .get(key)
            .ok_or_else(|| format!("no pin for `{key}`"))?;
        let fields = [
            ("n", want.n == got.n),
            (
                "node_averaged",
                want.node_averaged.to_bits() == got.node_averaged.to_bits(),
            ),
            ("worst_case", want.worst_case == got.worst_case),
            ("labels_fnv", want.labels_fnv == got.labels_fnv),
            ("rounds_fnv", want.rounds_fnv == got.rounds_fnv),
        ];
        match fields.iter().find(|(_, ok)| !ok) {
            Some((name, _)) => Err(format!("`{key}`: {name} differs from its pin")),
            None => Ok(()),
        }
    }

    /// Renders the pins file, one entry per line.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let last = self.map.len().saturating_sub(1);
        for (i, (key, p)) in self.map.iter().enumerate() {
            let _ = writeln!(
                out,
                "  \"{key}\": {{\"n\": {}, \"node_averaged\": {:?}, \"worst_case\": {}, \"labels_fnv\": \"{:016x}\", \"rounds_fnv\": \"{:016x}\"}}{}",
                p.n,
                p.node_averaged,
                p.worst_case,
                p.labels_fnv,
                p.rounds_fnv,
                if i == last { "" } else { "," }
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_round_trips_exactly() {
        let mut pins = Pins::default();
        let pin = Fingerprint {
            n: 1_000_000,
            node_averaged: 2.300_000_000_000_000_3,
            worst_case: 37,
            labels_fnv: u64::MAX - 5,
            rounds_fnv: 0x0123_4567_89ab_cdef,
        };
        pins.insert("w/job/n=1/pool=0".into(), pin.clone());
        let loaded = Pins::parse(&pins.render()).unwrap();
        loaded.check("w/job/n=1/pool=0", &pin).unwrap();
        let mut off = pin;
        off.worst_case += 1;
        assert!(loaded.check("w/job/n=1/pool=0", &off).is_err());
        assert!(loaded.check("missing", &off).is_err());
    }
}
