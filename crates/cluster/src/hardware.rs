//! Server hardware models.
//!
//! The paper's customer site mixed Sun Enterprise 4500s and E10Ks
//! (databases), E10K/Ultra 10/Linux/E450/E220R/HP K- and T-class
//! transaction servers, and IBM SP2 front-ends. The SLKT-driven
//! rescheduler selects replacement servers "of equal or higher power …
//! prefer first a server of the same model with more CPUs and memory",
//! so the model catalogue and a power ordering are load-bearing.

use std::fmt;

/// Hardware platform families present at the customer site (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServerModel {
    /// Sun Enterprise 10000 "Starfire" — the big database irons.
    SunE10k,
    /// Sun Enterprise 4500.
    SunE4500,
    /// Sun Enterprise 450.
    SunE450,
    /// Sun Enterprise 220R.
    SunE220r,
    /// Sun Ultra 10 workstation-class server.
    SunUltra10,
    /// HP 9000 K-class.
    HpKClass,
    /// HP 9000 T-class.
    HpTClass,
    /// IBM RS/6000 SP2 node (front-end applications).
    IbmSp2,
    /// Commodity Linux box.
    LinuxBox,
}

/// Operating systems, as reported in DLSP/DGSPL entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsKind {
    /// Sun Solaris.
    Solaris,
    /// HP-UX.
    Hpux,
    /// IBM AIX.
    Aix,
    /// Linux.
    Linux,
}

impl ServerModel {
    /// The model's name, as DLSPs and DGSPLs carry it.
    pub const fn name(self) -> &'static str {
        match self {
            ServerModel::SunE10k => "Sun-E10000",
            ServerModel::SunE4500 => "Sun-E4500",
            ServerModel::SunE450 => "Sun-E450",
            ServerModel::SunE220r => "Sun-E220R",
            ServerModel::SunUltra10 => "Sun-Ultra10",
            ServerModel::HpKClass => "HP-K-class",
            ServerModel::HpTClass => "HP-T-class",
            ServerModel::IbmSp2 => "IBM-SP2",
            ServerModel::LinuxBox => "Linux-x86",
        }
    }

    /// All known models.
    pub const ALL: [ServerModel; 9] = [
        ServerModel::SunE10k,
        ServerModel::SunE4500,
        ServerModel::SunE450,
        ServerModel::SunE220r,
        ServerModel::SunUltra10,
        ServerModel::HpKClass,
        ServerModel::HpTClass,
        ServerModel::IbmSp2,
        ServerModel::LinuxBox,
    ];

    /// Native operating system for the platform.
    pub fn os(self) -> OsKind {
        match self {
            ServerModel::SunE10k
            | ServerModel::SunE4500
            | ServerModel::SunE450
            | ServerModel::SunE220r
            | ServerModel::SunUltra10 => OsKind::Solaris,
            ServerModel::HpKClass | ServerModel::HpTClass => OsKind::Hpux,
            ServerModel::IbmSp2 => OsKind::Aix,
            ServerModel::LinuxBox => OsKind::Linux,
        }
    }

    /// Default hardware specification for a mid-range configuration of
    /// this model (period-plausible values; scenarios may override CPU
    /// and RAM counts per server).
    pub fn default_spec(self) -> HardwareSpec {
        match self {
            ServerModel::SunE10k => HardwareSpec::new(self, 32, 32, 12),
            ServerModel::SunE4500 => HardwareSpec::new(self, 8, 8, 6),
            ServerModel::SunE450 => HardwareSpec::new(self, 4, 4, 4),
            ServerModel::SunE220r => HardwareSpec::new(self, 2, 2, 2),
            ServerModel::SunUltra10 => HardwareSpec::new(self, 1, 1, 1),
            ServerModel::HpKClass => HardwareSpec::new(self, 4, 4, 4),
            ServerModel::HpTClass => HardwareSpec::new(self, 8, 8, 6),
            ServerModel::IbmSp2 => HardwareSpec::new(self, 4, 2, 2),
            ServerModel::LinuxBox => HardwareSpec::new(self, 2, 1, 2),
        }
    }

    /// Per-CPU relative compute power (dimensionless; an E10K CPU is the
    /// unit). Used by the SLKT power ordering and the load model.
    pub fn cpu_power(self) -> f64 {
        match self {
            ServerModel::SunE10k => 1.0,
            ServerModel::SunE4500 => 0.9,
            ServerModel::SunE450 => 0.8,
            ServerModel::SunE220r => 0.75,
            ServerModel::SunUltra10 => 0.6,
            ServerModel::HpKClass => 0.85,
            ServerModel::HpTClass => 0.95,
            ServerModel::IbmSp2 => 0.8,
            ServerModel::LinuxBox => 0.7,
        }
    }
}

impl fmt::Display for ServerModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for OsKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OsKind::Solaris => "Solaris",
            OsKind::Hpux => "HP-UX",
            OsKind::Aix => "AIX",
            OsKind::Linux => "Linux",
        };
        f.write_str(s)
    }
}

/// Concrete hardware configuration of one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareSpec {
    /// Platform family.
    pub model: ServerModel,
    /// Number of CPUs.
    pub cpus: u32,
    /// RAM in gigabytes.
    pub ram_gb: u32,
    /// Number of locally attached disks (all data lives on local disks
    /// at the customer site).
    pub disks: u32,
}

impl HardwareSpec {
    /// Build a spec.
    pub fn new(model: ServerModel, cpus: u32, ram_gb: u32, disks: u32) -> Self {
        HardwareSpec {
            model,
            cpus,
            ram_gb,
            disks,
        }
    }

    /// Total compute power: CPUs × per-CPU relative power.
    pub fn compute_power(&self) -> f64 {
        self.cpus as f64 * self.model.cpu_power()
    }

    /// SLKT "equal or higher power" comparison: `other` can replace
    /// `self` iff it has at least as much compute power **and** at least
    /// as much RAM.
    pub fn can_be_replaced_by(&self, other: &HardwareSpec) -> bool {
        other.compute_power() >= self.compute_power() && other.ram_gb >= self.ram_gb
    }
}

/// Classes of physical components a hardware intelliagent looks after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HardwareComponent {
    /// A CPU (or CPU board).
    Cpu,
    /// A memory bank.
    Memory,
    /// A system board.
    Board,
    /// A locally attached disk.
    Disk,
    /// A network interface card.
    Nic,
    /// A power supply unit.
    PowerSupply,
}

impl HardwareComponent {
    /// All component classes.
    pub const ALL: [HardwareComponent; 6] = [
        HardwareComponent::Cpu,
        HardwareComponent::Memory,
        HardwareComponent::Board,
        HardwareComponent::Disk,
        HardwareComponent::Nic,
        HardwareComponent::PowerSupply,
    ];

    /// Whether a failure of this component class can be repaired without
    /// a field engineer, i.e. the OS can offline/failover around it
    /// (CPU offlining, disk mirror detach, NIC failover). Board and PSU
    /// failures always need hands-on work in the paper's account —
    /// "our software was unable to take care of … hardware related
    /// errors".
    pub fn software_recoverable(self) -> bool {
        matches!(
            self,
            HardwareComponent::Cpu | HardwareComponent::Disk | HardwareComponent::Nic
        )
    }
}

impl fmt::Display for HardwareComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HardwareComponent::Cpu => "cpu",
            HardwareComponent::Memory => "memory",
            HardwareComponent::Board => "board",
            HardwareComponent::Disk => "disk",
            HardwareComponent::Nic => "nic",
            HardwareComponent::PowerSupply => "psu",
        };
        f.write_str(s)
    }
}

/// Health of one hardware component instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComponentHealth {
    /// Operating normally.
    #[default]
    Healthy,
    /// Producing correctable errors — a latent fault a hardware agent
    /// can catch in logs before it becomes fatal.
    Degraded,
    /// Failed and offlined.
    Failed,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_mapping() {
        assert_eq!(ServerModel::SunE10k.os(), OsKind::Solaris);
        assert_eq!(ServerModel::HpKClass.os(), OsKind::Hpux);
        assert_eq!(ServerModel::IbmSp2.os(), OsKind::Aix);
        assert_eq!(ServerModel::LinuxBox.os(), OsKind::Linux);
    }

    #[test]
    fn e10k_outranks_everything_default() {
        let e10k = ServerModel::SunE10k.default_spec();
        for m in ServerModel::ALL {
            let spec = m.default_spec();
            assert!(
                spec.can_be_replaced_by(&e10k),
                "{m} default spec should be replaceable by an E10K"
            );
        }
    }

    #[test]
    fn replacement_requires_power_and_ram() {
        let small = HardwareSpec::new(ServerModel::SunE450, 4, 4, 4);
        let more_cpu_less_ram = HardwareSpec::new(ServerModel::SunE450, 8, 2, 4);
        let more_both = HardwareSpec::new(ServerModel::SunE450, 8, 8, 4);
        assert!(!small.can_be_replaced_by(&more_cpu_less_ram));
        assert!(small.can_be_replaced_by(&more_both));
        assert!(small.can_be_replaced_by(&small)); // equal power is allowed
    }

    #[test]
    fn compute_power_scales_with_cpus() {
        let one = HardwareSpec::new(ServerModel::SunE10k, 1, 4, 1);
        let four = HardwareSpec::new(ServerModel::SunE10k, 4, 4, 1);
        assert!((four.compute_power() - 4.0 * one.compute_power()).abs() < 1e-12);
    }

    #[test]
    fn cross_model_power_comparison() {
        // 2 E10K CPUs (2.0) vs 3 Ultra10 CPUs (1.8): the E10K pair wins.
        let a = HardwareSpec::new(ServerModel::SunE10k, 2, 4, 1);
        let b = HardwareSpec::new(ServerModel::SunUltra10, 3, 4, 1);
        assert!(b.can_be_replaced_by(&a));
        assert!(!a.can_be_replaced_by(&b));
    }

    #[test]
    fn recoverability_split() {
        assert!(HardwareComponent::Cpu.software_recoverable());
        assert!(HardwareComponent::Disk.software_recoverable());
        assert!(HardwareComponent::Nic.software_recoverable());
        assert!(!HardwareComponent::Board.software_recoverable());
        assert!(!HardwareComponent::PowerSupply.software_recoverable());
        assert!(!HardwareComponent::Memory.software_recoverable());
    }

    #[test]
    fn display_names_are_stable() {
        // These strings end up in ontology files; they must not drift.
        assert_eq!(ServerModel::SunE10k.to_string(), "Sun-E10000");
        assert_eq!(OsKind::Solaris.to_string(), "Solaris");
        assert_eq!(HardwareComponent::PowerSupply.to_string(), "psu");
    }
}
