//! Work items and the analytic time model.

use crate::device::{DeviceKind, KernelClass};
use crate::soc::SocSpec;
use tvmnp_tensor::{DType, Shape};

/// Broad kernel categories — they differ in how well devices run them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkKind {
    /// Dense MAC-bound kernels (conv, dense).
    MacHeavy,
    /// Element-wise / activation kernels.
    Elementwise,
    /// Pure data movement (reshape, transpose, concat, pad, slice).
    DataMovement,
    /// Reductions (pooling, mean, softmax normalization).
    Reduction,
}

impl WorkKind {
    /// All kinds, in a stable order (the [`CostModel`] scale-table order).
    pub const ALL: [WorkKind; 4] = [
        WorkKind::MacHeavy,
        WorkKind::Elementwise,
        WorkKind::DataMovement,
        WorkKind::Reduction,
    ];

    /// Short display name (also accepted by [`WorkKind::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            WorkKind::MacHeavy => "mac",
            WorkKind::Elementwise => "elementwise",
            WorkKind::DataMovement => "data-movement",
            WorkKind::Reduction => "reduction",
        }
    }

    /// Parse a kind from its [`WorkKind::name`].
    pub fn parse(s: &str) -> Option<WorkKind> {
        WorkKind::ALL.iter().copied().find(|k| k.name() == s)
    }

    /// Position in [`WorkKind::ALL`].
    fn index(self) -> usize {
        match self {
            WorkKind::MacHeavy => 0,
            WorkKind::Elementwise => 1,
            WorkKind::DataMovement => 2,
            WorkKind::Reduction => 3,
        }
    }
}

/// One kernel's worth of work, in device-neutral units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkItem {
    /// Multiply-accumulate count (each MAC = 2 ops).
    pub macs: u64,
    /// Bytes read (inputs + weights).
    pub bytes_in: u64,
    /// Bytes written.
    pub bytes_out: u64,
    /// Whether the kernel runs in 8-bit integer arithmetic.
    pub int8: bool,
    /// Kernel category.
    pub kind: WorkKind,
}

impl WorkItem {
    /// Total bytes touched.
    pub fn bytes(&self) -> u64 {
        self.bytes_in + self.bytes_out
    }

    /// The work of one op — the only op → work formula table. Both IRs
    /// key their operators into it (Relay's `OpKind` in the graph
    /// executor, `NeuronOpKind` in the Neuron runtime), so an op costs the
    /// same whichever runtime runs it. `operands` and `out` are borrowed
    /// `(shape, dtype)` pairs, in operator order.
    pub fn price<'a>(
        key: WorkKey,
        operands: impl IntoIterator<Item = (&'a Shape, DType)>,
        (out_shape, out_dtype): (&Shape, DType),
    ) -> WorkItem {
        let elems = |shape: &Shape| shape.num_elements() as u64;
        let (mut bytes_in, mut int8, mut first_elems, mut weight_per_out) = (0, false, 0, 0);
        for (i, (shape, dtype)) in operands.into_iter().enumerate() {
            bytes_in += (shape.num_elements() * dtype.size_bytes()) as u64;
            match i {
                0 => (int8, first_elems) = (dtype.is_quantized(), elems(shape)),
                1 => weight_per_out = shape.dims().iter().skip(1).map(|&d| d as u64).product(),
                _ => {}
            }
        }
        let out_elems = elems(out_shape);
        let per_out = |per: u64| out_elems.saturating_mul(per);
        let (macs, kind) = match key {
            WorkKey::Mac => (per_out(weight_per_out), WorkKind::MacHeavy),
            WorkKey::Window(kh, kw) => (
                per_out((kh as u64).saturating_mul(kw as u64)),
                WorkKind::Reduction,
            ),
            WorkKey::ReduceInput => (first_elems, WorkKind::Reduction),
            WorkKey::Softmax => (per_out(4), WorkKind::Reduction),
            WorkKey::DataMovement => (0, WorkKind::DataMovement),
            WorkKey::Elementwise(per) => (per_out(per), WorkKind::Elementwise),
        };
        WorkItem {
            macs,
            bytes_in,
            bytes_out: (out_shape.num_elements() * out_dtype.size_bytes()) as u64,
            int8: out_dtype.is_quantized() || int8,
            kind,
        }
    }
}

/// Which formula of [`WorkItem::price`] an op is priced by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKey {
    /// Output elements × the product of the weight's (operand 1's) dims
    /// after the first: convolution and dense.
    Mac,
    /// Output elements × the `(kh, kw)` pooling window.
    Window(usize, usize),
    /// One step per element of operand 0 (global pooling, mean).
    ReduceInput,
    /// Four steps per output element (max, exp, sum, divide).
    Softmax,
    /// No arithmetic (reshape, transpose, concat, pad, slice).
    DataMovement,
    /// The given number of operations per output element.
    Elementwise(u64),
}

/// The analytic time model over a [`SocSpec`].
#[derive(Debug, Clone)]
pub struct CostModel {
    soc: SocSpec,
    /// Per-(device, kind) time multipliers (`[device][kind]`), all 1.0 by
    /// default. Thermal-throttle fault rules scale individual cells here
    /// so a fault plan can slow one device without touching the others;
    /// the bench harness's synthetic slowdowns scale a kind's cell on
    /// every device.
    device_kind_scale: [[f64; 4]; 3],
}

impl CostModel {
    /// Model over the given SoC.
    pub fn new(soc: SocSpec) -> Self {
        CostModel {
            soc,
            device_kind_scale: [[1.0; 4]; 3],
        }
    }

    /// Borrow the SoC description.
    pub fn soc(&self) -> &SocSpec {
        &self.soc
    }

    /// Scale the body time of every kernel of `kind` by `factor` (> 1.0 =
    /// slower): that kind's cell on every device. Used to inject controlled
    /// slowdowns when exercising the benchmark regression harness.
    pub fn with_kind_scale(self, kind: WorkKind, factor: f64) -> Self {
        let every_device = DeviceKind::ALL.map(|device| (device, kind, factor));
        self.with_device_kind_scales(every_device)
    }

    /// Scale the body time of kernels of `kind` **on `device` only** by
    /// `factor` (> 1.0 = slower). Thermal-throttle fault rules apply here
    /// (see `fault::FaultPlan::throttled_cost`).
    pub(crate) fn with_device_kind_scale(
        mut self,
        device: DeviceKind,
        kind: WorkKind,
        factor: f64,
    ) -> Self {
        debug_assert!(factor > 0.0, "scale factor must be positive");
        self.device_kind_scale[device.index()][kind.index()] *= factor;
        self
    }

    /// Apply a batch of per-(device, kind) multipliers, each as
    /// [`CostModel::with_device_kind_scale`] would.
    pub(crate) fn with_device_kind_scales(
        mut self,
        scales: impl IntoIterator<Item = (DeviceKind, WorkKind, f64)>,
    ) -> Self {
        for (device, kind, factor) in scales {
            self = self.with_device_kind_scale(device, kind, factor);
        }
        self
    }

    /// Time for one kernel on one device, **excluding** launch overhead:
    /// roofline-style `max(compute, memory)`, times the (device, kind)
    /// multiplier.
    pub(crate) fn kernel_body_us(
        &self,
        w: &WorkItem,
        device: DeviceKind,
        class: KernelClass,
    ) -> f64 {
        let spec = self.soc.device(device);
        let gops = spec.effective_gops(w.int8, class).max(1e-9);
        // MacHeavy kernels use the full MAC array; other kinds are
        // throughput-limited well below peak (vector lanes, not MACs).
        let kind_derate = match w.kind {
            WorkKind::MacHeavy => 1.0,
            WorkKind::Elementwise => 0.25,
            WorkKind::Reduction => 0.15,
            WorkKind::DataMovement => 1.0, // memory bound anyway
        };
        let ops = 2.0 * w.macs as f64;
        let compute_us = ops / (gops * kind_derate * 1e3);
        let memory_us = w.bytes() as f64 / (spec.mem_bw_gbps * 1e3);
        compute_us.max(memory_us) * self.device_kind_scale[device.index()][w.kind.index()]
    }

    /// Fixed cost of dispatching one compiled subgraph to `device`.
    pub fn subgraph_dispatch_us(&self, device: DeviceKind) -> f64 {
        self.soc.device(device).subgraph_dispatch_us
    }

    /// Cost of moving `bytes` across a runtime/device boundary.
    pub fn transfer_us(&self, bytes: usize) -> f64 {
        self.soc.transfer.time_us(bytes)
    }

    /// Energy of one kernel on one device, microjoules (compute + its own
    /// memory traffic).
    pub(crate) fn kernel_energy_uj(
        &self,
        w: &WorkItem,
        device: DeviceKind,
        class: KernelClass,
    ) -> f64 {
        let spec = self.soc.device(device);
        let ops = 2.0 * w.macs as f64 + w.bytes() as f64 * 0.1; // traffic-side ops
        spec.energy_uj(ops, w.int8, class)
            + crate::soc::TRANSFER_PJ_PER_BYTE * w.bytes() as f64 * 1e-6
    }

    /// Energy of one boundary transfer, microjoules.
    pub(crate) fn transfer_energy_uj(&self, bytes: usize) -> f64 {
        self.soc.transfer.energy_uj(bytes)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new(SocSpec::dimensity_800())
    }
}

#[cfg(test)]
impl CostModel {
    /// Time for one kernel including the per-kernel launch overhead: the
    /// reference the cost ledger's kernel entry is checked against.
    pub(crate) fn kernel_us(&self, w: &WorkItem, device: DeviceKind, class: KernelClass) -> f64 {
        self.soc.device(device).kernel_launch_us + self.kernel_body_us(w, device, class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_kind_index_is_the_position_in_all() {
        for (i, k) in WorkKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    /// One row per [`WorkKey`]: operands and result as `(dims, dtype)`,
    /// and the MACs and kind [`WorkItem::price`] must charge.
    #[test]
    fn price_table() {
        use DType::{F32, U8};
        type Operand = (&'static [usize], DType);
        let rows: [(WorkKey, &[Operand], Operand, u64, WorkKind); 8] = [
            // conv: out 1x16x8x8 = 1024 elems, 3*3*3 = 27 MACs each.
            (
                WorkKey::Mac,
                &[(&[1, 3, 8, 8], F32), (&[16, 3, 3, 3], F32)],
                (&[1, 16, 8, 8], F32),
                1024 * 27,
                WorkKind::MacHeavy,
            ),
            // dense: 10 outputs of 8 MACs, the bias adds bytes only.
            (
                WorkKey::Mac,
                &[(&[1, 8], F32), (&[10, 8], F32), (&[10], F32)],
                (&[1, 10], F32),
                80,
                WorkKind::MacHeavy,
            ),
            (
                WorkKey::Window(3, 3),
                &[(&[1, 4, 8, 8], F32)],
                (&[1, 4, 6, 6], F32),
                144 * 9,
                WorkKind::Reduction,
            ),
            (
                WorkKey::ReduceInput,
                &[(&[1, 4, 8, 8], F32)],
                (&[1, 4, 1, 1], F32),
                256,
                WorkKind::Reduction,
            ),
            (
                WorkKey::Softmax,
                &[(&[1, 10], F32)],
                (&[1, 10], F32),
                40,
                WorkKind::Reduction,
            ),
            (
                WorkKey::DataMovement,
                &[(&[2, 8], F32)],
                (&[4, 4], F32),
                0,
                WorkKind::DataMovement,
            ),
            // int8 is read off the first operand as well as the result.
            (
                WorkKey::Elementwise(1),
                &[(&[1, 4], U8)],
                (&[1, 4], F32),
                4,
                WorkKind::Elementwise,
            ),
            // bilinear resize: eight operations per output element.
            (
                WorkKey::Elementwise(8),
                &[(&[1, 1, 2, 2], F32)],
                (&[1, 1, 4, 4], F32),
                128,
                WorkKind::Elementwise,
            ),
        ];
        for (key, operands, (out, out_dtype), macs, kind) in rows {
            let shapes: Vec<(Shape, DType)> =
                operands.iter().map(|&(d, t)| (Shape::from(d), t)).collect();
            let out = Shape::from(out);
            let w = WorkItem::price(key, shapes.iter().map(|(s, t)| (s, *t)), (&out, out_dtype));
            let bytes_in: usize = operands
                .iter()
                .map(|(d, t)| d.iter().product::<usize>() * t.size_bytes())
                .sum();
            assert_eq!((w.macs, w.kind), (macs, kind), "{key:?}");
            assert_eq!(w.bytes_in, bytes_in as u64, "{key:?}");
            assert_eq!(w.bytes_out, (out.num_elements() * 4) as u64, "{key:?}");
            assert_eq!(w.int8, operands[0].1 == U8, "{key:?}");
        }
    }

    fn conv_item(macs: u64, int8: bool) -> WorkItem {
        WorkItem {
            macs,
            bytes_in: 1 << 20,
            bytes_out: 1 << 18,
            int8,
            kind: WorkKind::MacHeavy,
        }
    }

    #[test]
    fn tvm_slower_than_vendor_on_cpu() {
        let m = CostModel::default();
        let w = conv_item(50_000_000, false);
        let tvm = m.kernel_us(&w, DeviceKind::Cpu, KernelClass::TvmUntuned);
        let np = m.kernel_us(&w, DeviceKind::Cpu, KernelClass::VendorTuned);
        assert!(
            tvm > 2.0 * np,
            "tvm {tvm} should be much slower than vendor {np}"
        );
    }

    #[test]
    fn apu_fastest_for_int8_conv() {
        let m = CostModel::default();
        let w = conv_item(50_000_000, true);
        let apu = m.kernel_body_us(&w, DeviceKind::Apu, KernelClass::VendorTuned);
        let cpu = m.kernel_body_us(&w, DeviceKind::Cpu, KernelClass::VendorTuned);
        let gpu = m.kernel_body_us(&w, DeviceKind::Gpu, KernelClass::VendorTuned);
        assert!(apu < cpu && apu < gpu);
    }

    #[test]
    fn memory_bound_kernels_hit_bandwidth_roof() {
        let m = CostModel::default();
        // Almost no MACs, lots of bytes: the roofline must pick memory time.
        let w = WorkItem {
            macs: 10,
            bytes_in: 140_000_000,
            bytes_out: 0,
            int8: false,
            kind: WorkKind::DataMovement,
        };
        let t = m.kernel_body_us(&w, DeviceKind::Cpu, KernelClass::VendorTuned);
        // 140 MB at 14 GB/s = 10 ms.
        assert!((t - 10_000.0).abs() / 10_000.0 < 0.01);
    }

    #[test]
    fn dispatch_overhead_positive_everywhere() {
        let m = CostModel::default();
        for d in DeviceKind::ALL {
            assert!(m.subgraph_dispatch_us(d) > 0.0);
        }
    }

    #[test]
    fn apu_saves_energy_on_int8_conv() {
        let m = CostModel::default();
        let w = conv_item(50_000_000, true);
        let apu = m.kernel_energy_uj(&w, DeviceKind::Apu, KernelClass::VendorTuned);
        let cpu = m.kernel_energy_uj(&w, DeviceKind::Cpu, KernelClass::VendorTuned);
        assert!(apu < cpu / 3.0, "apu {apu} uJ vs cpu {cpu} uJ");
    }

    #[test]
    fn kind_scale_slows_only_that_kind() {
        let base = CostModel::default();
        let scaled = CostModel::default().with_kind_scale(WorkKind::MacHeavy, 2.0);
        let conv = conv_item(50_000_000, false);
        let t0 = base.kernel_body_us(&conv, DeviceKind::Cpu, KernelClass::VendorTuned);
        let t1 = scaled.kernel_body_us(&conv, DeviceKind::Cpu, KernelClass::VendorTuned);
        assert!((t1 - 2.0 * t0).abs() < 1e-9, "{t1} != 2*{t0}");
        let ew = WorkItem {
            macs: 1_000_000,
            bytes_in: 1 << 10,
            bytes_out: 1 << 10,
            int8: false,
            kind: WorkKind::Elementwise,
        };
        let e0 = base.kernel_body_us(&ew, DeviceKind::Cpu, KernelClass::VendorTuned);
        let e1 = scaled.kernel_body_us(&ew, DeviceKind::Cpu, KernelClass::VendorTuned);
        assert_eq!(e0, e1, "other kinds untouched");
        for device in DeviceKind::ALL {
            let t0 = base.kernel_body_us(&conv, device, KernelClass::VendorTuned);
            let t1 = scaled.kernel_body_us(&conv, device, KernelClass::VendorTuned);
            assert_eq!(t1, 2.0 * t0, "{device:?}");
        }
        assert_eq!(WorkKind::parse("mac"), Some(WorkKind::MacHeavy));
        assert_eq!(WorkKind::parse("bogus"), None);
    }

    /// Scaling one (device, kind) cell by 2 doubles that cell's kernel
    /// body time exactly and leaves every other (device, kind, class)
    /// cell bit-equal.
    #[test]
    fn device_kind_scales_touch_only_their_cell() {
        let base = CostModel::default();
        let scaled = CostModel::default().with_device_kind_scales([(
            DeviceKind::Apu,
            WorkKind::MacHeavy,
            2.0,
        )]);
        for device in DeviceKind::ALL {
            for kind in WorkKind::ALL {
                for class in [KernelClass::TvmUntuned, KernelClass::VendorTuned] {
                    for int8 in [false, true] {
                        let w = WorkItem {
                            kind,
                            ..conv_item(50_000_000, int8)
                        };
                        let t0 = base.kernel_body_us(&w, device, class);
                        let t1 = scaled.kernel_body_us(&w, device, class);
                        if (device, kind) == (DeviceKind::Apu, WorkKind::MacHeavy) {
                            assert_eq!(t1, 2.0 * t0, "{device:?}/{kind:?}/{class:?}");
                        } else {
                            assert_eq!(t1.to_bits(), t0.to_bits(), "{device:?}/{kind:?}/{class:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_scales_compose_like_single_applications() {
        let batch = CostModel::default().with_device_kind_scales([
            (DeviceKind::Apu, WorkKind::MacHeavy, 1.5),
            (DeviceKind::Apu, WorkKind::MacHeavy, 2.0),
        ]);
        let single = CostModel::default()
            .with_device_kind_scale(DeviceKind::Apu, WorkKind::MacHeavy, 1.5)
            .with_device_kind_scale(DeviceKind::Apu, WorkKind::MacHeavy, 2.0);
        let w = conv_item(50_000_000, true);
        let (d, c) = (DeviceKind::Apu, KernelClass::VendorTuned);
        let reference = CostModel::default().kernel_body_us(&w, d, c);
        assert_eq!(batch.kernel_body_us(&w, d, c), 3.0 * reference);
        assert_eq!(
            batch.kernel_body_us(&w, d, c).to_bits(),
            single.kernel_body_us(&w, d, c).to_bits()
        );
    }

    #[test]
    fn empty_item_costs_only_overhead() {
        let m = CostModel::default();
        let empty = Shape::from([0]);
        let w = WorkItem::price(WorkKey::DataMovement, [], (&empty, DType::F32));
        let t = m.kernel_us(&w, DeviceKind::Cpu, KernelClass::VendorTuned);
        assert!((t - m.soc().device(DeviceKind::Cpu).kernel_launch_us).abs() < 1e-9);
    }
}
