//! `CostModel` calibration: what the model charges for a kernel
//! against what the kernel measures on this machine.
//!
//! Informational, not regression-gated. The model describes a 1.4 GHz
//! Xeon of 2003, so a large ratio is expected; the table is the
//! evidence a later change needs to stop spinning in `udpd`.

use crate::layers::KernelResult;

/// One row of the `model_vs_measured` block.
#[derive(Clone, Debug, PartialEq)]
pub struct CalibrationRow {
    pub kernel: &'static str,
    pub charged_ns: f64,
    pub measured_ns: f64,
    /// charged / measured.
    pub ratio: f64,
    /// Off by more than 2× in either direction.
    pub flagged: bool,
}

/// Rows for every kernel that maps onto a charge site.
pub fn table(kernels: &[KernelResult]) -> Vec<CalibrationRow> {
    kernels
        .iter()
        .filter_map(|k| {
            let charged_ns = k.charged_ns?;
            let ratio = charged_ns / k.ns_per_op.max(f64::MIN_POSITIVE);
            Some(CalibrationRow {
                kernel: k.name,
                charged_ns,
                measured_ns: k.ns_per_op,
                ratio,
                flagged: !(0.5..=2.0).contains(&ratio),
            })
        })
        .collect()
}

/// The rows as a JSON array.
pub fn to_json(rows: &[CalibrationRow]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"kernel\":\"{}\",\"charged_ns\":{:.1},\"measured_ns\":{:.1},\"ratio\":{:.3},\"flagged\":{}}}",
                r.kernel, r.charged_ns, r.measured_ns, r.ratio, r.flagged
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(name: &'static str, ns_per_op: f64, charged_ns: Option<f64>) -> KernelResult {
        KernelResult {
            name,
            ns_per_op,
            mad_ns: 0.0,
            batches: 30,
            ops_per_batch: 1,
            charged_ns,
        }
    }

    #[test]
    fn rows_flag_more_than_two_times_off() {
        let rows = table(&[
            kernel("a", 100.0, Some(150.0)),
            kernel("b", 100.0, Some(250.0)),
            kernel("c", 100.0, Some(40.0)),
            kernel("uncalibrated", 100.0, None),
        ]);
        let flags: Vec<_> = rows.iter().map(|r| (r.kernel, r.flagged)).collect();
        assert_eq!(flags, [("a", false), ("b", true), ("c", true)]);
        assert_eq!(rows[1].ratio, 2.5);
        assert!(to_json(&rows).starts_with("[{\"kernel\":\"a\""));
    }
}
