//! Seeded corpus generation — the stand-in for the paper's crawler.
//!
//! §5.1: the authors crawled public support sites of NETGEAR, D-Link and
//! ASUS, unpacked ~2,000 usable images and indexed ~200,000 executables.
//! This module generates a scaled-down corpus with the same *structure*:
//! vendors with characteristic architectures and tool chains, devices
//! with firmware version histories (the last one being "latest"),
//! per-image package selections with version skew and disabled feature
//! groups, stripped executables, and full ground truth recorded before
//! stripping.

use std::collections::HashMap;

use firmup_compiler::{compile_source, CompilerOptions, ToolchainProfile};
use firmup_isa::Arch;

use crate::image::{pack, ImageMeta, Part};
use crate::packages::{all_packages, source_for, PackageSpec};
use crate::rng::{SliceRandom, SmallRng};

/// Corpus generation parameters. All randomness flows from `seed`.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of devices across all vendors.
    pub devices: usize,
    /// Maximum firmware versions per device (min 1; the last is
    /// "latest").
    pub max_firmware_versions: usize,
    /// CVE packages per image (busybox is always added on top).
    pub min_packages: usize,
    /// Upper bound of CVE packages per image.
    pub max_packages: usize,
    /// Filler procedures per executable: `(min, max)`.
    pub filler: (usize, usize),
    /// Strip target executables (libraries keep exported symbols).
    pub strip: bool,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0xf12a_0b5e,
            devices: 18,
            max_firmware_versions: 2,
            min_packages: 2,
            max_packages: 4,
            filler: (2, 8),
            strip: true,
        }
    }
}

impl CorpusConfig {
    /// A small configuration for fast tests.
    pub fn tiny() -> CorpusConfig {
        CorpusConfig {
            devices: 3,
            max_firmware_versions: 1,
            min_packages: 1,
            max_packages: 2,
            filler: (1, 3),
            ..CorpusConfig::default()
        }
    }
}

/// Named corpus sizes (`firmup gen-corpus --scale ...`), each a fixed
/// [`CorpusConfig`] so a preset name always reproduces the same corpus.
/// See CORPUS.md for the mapping to the paper's §6 corpus dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalePreset {
    /// Today's fixture corpus: 18 devices, ~24 images, ~3k procedures.
    /// Fast enough for every CI job.
    Smoke,
    /// ~90 devices / ~120 images / ~25k procedures: local soak runs.
    Small,
    /// ~375 devices / ~500 images / ≥100k procedures: the scaling
    /// bench substrate (gated CI only).
    Medium,
    /// ~1500 devices / ~2–3k images: the closest approximation of the
    /// paper's ~2,000 crawled images this generator produces.
    Paper,
}

impl ScalePreset {
    /// All presets, smallest first.
    pub fn all() -> [ScalePreset; 4] {
        [
            ScalePreset::Smoke,
            ScalePreset::Small,
            ScalePreset::Medium,
            ScalePreset::Paper,
        ]
    }

    /// Parse a preset name as the CLI spells it.
    pub fn parse(name: &str) -> Option<ScalePreset> {
        match name {
            "smoke" => Some(ScalePreset::Smoke),
            "small" => Some(ScalePreset::Small),
            "medium" => Some(ScalePreset::Medium),
            "paper" => Some(ScalePreset::Paper),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ScalePreset::Smoke => "smoke",
            ScalePreset::Small => "small",
            ScalePreset::Medium => "medium",
            ScalePreset::Paper => "paper",
        }
    }

    /// The generation parameters this preset pins. `Smoke` is exactly
    /// [`CorpusConfig::default`], so existing fixtures and golden tests
    /// are unchanged; larger presets scale device count and raise the
    /// filler range (real firmware executables carry far more
    /// procedures than the fixture's handful).
    pub fn config(self) -> CorpusConfig {
        match self {
            ScalePreset::Smoke => CorpusConfig::default(),
            ScalePreset::Small => CorpusConfig {
                devices: 90,
                filler: (8, 24),
                ..CorpusConfig::default()
            },
            ScalePreset::Medium => CorpusConfig {
                devices: 375,
                filler: (24, 56),
                ..CorpusConfig::default()
            },
            ScalePreset::Paper => CorpusConfig {
                devices: 1500,
                max_firmware_versions: 3,
                filler: (24, 56),
                ..CorpusConfig::default()
            },
        }
    }
}

/// A vendor with its characteristic build environment.
#[derive(Debug, Clone)]
pub struct Vendor {
    /// Vendor name.
    pub name: &'static str,
    /// Architectures this vendor ships.
    pub archs: Vec<Arch>,
    /// Tool chains this vendor's SDKs use.
    pub toolchains: Vec<ToolchainProfile>,
}

/// The three vendors of §5.1.
pub fn vendors() -> Vec<Vendor> {
    vec![
        Vendor {
            name: "NETGEAR",
            archs: vec![Arch::Mips32, Arch::Arm32],
            toolchains: vec![
                ToolchainProfile::vendor_size(),
                ToolchainProfile::vendor_fast(),
            ],
        },
        Vendor {
            name: "D-Link",
            archs: vec![Arch::Mips32, Arch::X86],
            toolchains: vec![
                ToolchainProfile::vendor_fast(),
                ToolchainProfile::vendor_debug(),
            ],
        },
        Vendor {
            name: "ASUS",
            archs: vec![Arch::Arm32, Arch::Ppc32, Arch::Mips32],
            toolchains: vec![
                ToolchainProfile::vendor_size(),
                ToolchainProfile::vendor_debug(),
            ],
        },
    ]
}

/// Ground truth for one executable inside an image, recorded before
/// stripping.
#[derive(Debug, Clone)]
pub struct BuiltExecutable {
    /// Part name inside the image.
    pub part_name: String,
    /// Source package.
    pub package: String,
    /// Package version.
    pub version: String,
    /// Feature groups the vendor disabled.
    pub disabled_features: Vec<String>,
    /// All function symbols `(name, addr, size)` before stripping.
    pub symbols: Vec<(String, u32, u32)>,
    /// Vulnerable procedures present: `(name, addr)`.
    pub vulnerable: Vec<(String, u32)>,
}

impl BuiltExecutable {
    /// Address of a (pre-strip) symbol.
    pub fn addr_of(&self, name: &str) -> Option<u32> {
        self.symbols
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, a, _)| a)
    }
}

/// One generated firmware image plus its ground truth.
#[derive(Debug, Clone)]
pub struct CorpusImage {
    /// Image metadata.
    pub meta: ImageMeta,
    /// The packed blob (what the search pipeline unpacks).
    pub blob: Vec<u8>,
    /// Device index (images of one device share it).
    pub device: usize,
    /// Whether this is the device's latest firmware.
    pub is_latest: bool,
    /// Architecture of the device.
    pub arch: Arch,
    /// Per-executable ground truth.
    pub truth: Vec<BuiltExecutable>,
}

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// All images.
    pub images: Vec<CorpusImage>,
    /// The configuration that produced them.
    pub config: CorpusConfig,
}

impl Corpus {
    /// Total number of executables.
    pub fn executable_count(&self) -> usize {
        self.images.iter().map(|i| i.truth.len()).sum()
    }

    /// Total number of (pre-strip) procedures, the paper's headline
    /// corpus metric.
    pub fn procedure_count(&self) -> usize {
        self.images
            .iter()
            .flat_map(|i| i.truth.iter().map(|t| t.symbols.len()))
            .sum()
    }
}

/// One planned package build inside a firmware image.
#[derive(Debug, Clone)]
pub struct BuildPlan {
    /// The package to compile.
    pub pkg: PackageSpec,
    /// Version to compile.
    pub version: &'static str,
    /// Feature groups the vendor disabled.
    pub disabled: Vec<String>,
}

/// One planned firmware version of a device.
#[derive(Debug, Clone)]
pub struct FirmwarePlan {
    /// Firmware version string.
    pub version: String,
    /// Whether this is the device's latest firmware.
    pub is_latest: bool,
    /// Package builds, busybox first.
    pub builds: Vec<BuildPlan>,
}

/// Everything needed to build one device's images, fixed before any
/// compilation happens. Building a device plan is *pure*: it touches no
/// RNG, so plans can be built in any order, in parallel, or selectively
/// (resume) and still produce byte-identical images.
#[derive(Debug, Clone)]
pub struct DevicePlan {
    /// Device index within the corpus.
    pub device: usize,
    /// Vendor name.
    pub vendor: &'static str,
    /// Device model string.
    pub model: String,
    /// Architecture.
    pub arch: Arch,
    /// Toolchain profile.
    pub toolchain: ToolchainProfile,
    /// Seed for filler-procedure generation (shared by all of this
    /// device's builds, like a vendor SDK's common code).
    pub filler_seed: u64,
    /// Filler procedures per executable.
    pub filler_count: usize,
    /// Firmware versions, oldest first.
    pub firmwares: Vec<FirmwarePlan>,
}

/// A fully drawn corpus plan: the deterministic output of the seed,
/// before any compilation.
#[derive(Debug, Clone)]
pub struct CorpusPlan {
    /// One plan per device, in device order.
    pub devices: Vec<DevicePlan>,
    /// The configuration that produced the plan.
    pub config: CorpusConfig,
}

impl CorpusPlan {
    /// Total images this plan will produce.
    pub fn image_count(&self) -> usize {
        self.devices.iter().map(|d| d.firmwares.len()).sum()
    }
}

/// Draw the full corpus plan from the seed. All randomness happens
/// here, sequentially, in exactly the order the original single-pass
/// generator drew it — so a given `(seed, config)` produces the same
/// corpus bytes it always has, while the expensive compilation becomes
/// a pure per-device function ([`build_device`]) that callers may
/// parallelize or resume.
pub fn plan(config: &CorpusConfig) -> CorpusPlan {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let vendors = vendors();
    let cve_packages: Vec<PackageSpec> = all_packages()
        .into_iter()
        .filter(|p| p.name != "busybox")
        .collect();
    let busybox = crate::packages::package("busybox").expect("busybox exists");
    let mut devices = Vec::with_capacity(config.devices);

    for device in 0..config.devices {
        let vendor = &vendors[device % vendors.len()];
        let arch = vendor.archs[rng.gen_range(0..vendor.archs.len())];
        let toolchain = vendor.toolchains[rng.gen_range(0..vendor.toolchains.len())].clone();
        let model = format!(
            "{}{}{:02}",
            ["R", "DIR-", "RT-AC"][device % 3],
            [7000, 850, 68][device % 3],
            device
        );
        let filler_seed = rng.gen::<u64>();
        let filler_count = rng.gen_range(config.filler.0..=config.filler.1);

        // Pick this device's packages once; firmware updates may bump
        // versions.
        let mut pool = cve_packages.clone();
        pool.shuffle(&mut rng);
        let n_pkgs = rng.gen_range(config.min_packages..=config.max_packages.min(pool.len()));
        let chosen: Vec<PackageSpec> = pool.into_iter().take(n_pkgs).collect();
        let fw_count = rng.gen_range(1..=config.max_firmware_versions.max(1));

        // Per-package starting version index (biased old) and disabled
        // features.
        let mut pkg_state: Vec<(PackageSpec, usize, Vec<String>)> = chosen
            .iter()
            .map(|p| {
                let vi = rng.gen_range(0..p.versions.len());
                let disabled: Vec<String> = p
                    .features
                    .iter()
                    .filter(|_| rng.gen_bool(0.4))
                    .map(|s| (*s).to_string())
                    .collect();
                (*p, vi, disabled)
            })
            .collect();

        let mut firmwares = Vec::with_capacity(fw_count);
        for fw in 0..fw_count {
            // busybox + chosen packages, versions as of this firmware.
            let mut builds = vec![BuildPlan {
                pkg: busybox,
                version: busybox.versions[busybox.versions.len() - 1].version,
                disabled: Vec::new(),
            }];
            builds.extend(pkg_state.iter().map(|(pkg, vi, disabled)| BuildPlan {
                pkg: *pkg,
                version: pkg.versions[*vi].version,
                disabled: disabled.clone(),
            }));
            firmwares.push(FirmwarePlan {
                version: format!("1.{}.{}", fw, device % 7),
                is_latest: fw == fw_count - 1,
                builds,
            });
            // Firmware update: occasionally bump package versions.
            for (pkg, vi, _) in &mut pkg_state {
                if *vi + 1 < pkg.versions.len() && rng.gen_bool(0.5) {
                    *vi += 1;
                }
            }
        }
        devices.push(DevicePlan {
            device,
            vendor: vendor.name,
            model,
            arch,
            toolchain,
            filler_seed,
            filler_count,
            firmwares,
        });
    }
    CorpusPlan {
        devices,
        config: config.clone(),
    }
}

/// Build one device's images from its plan. Pure (no RNG, no shared
/// state): safe to call for any subset of devices, in any order, on any
/// thread — the bytes depend only on the plan.
///
/// The compile cache is per-device: identical (pkg, version, features,
/// arch, profile, filler) tuples yield byte-identical executables —
/// modeling vendors not recompiling unchanged packages between firmware
/// releases (observed by the paper in §5.2, "Confirming findings").
/// Cache keys embed the device's random `filler_seed`, so cross-device
/// hits cannot occur and a per-device cache reproduces exactly what the
/// old corpus-global cache did.
///
/// # Panics
///
/// Panics only on internal corpus bugs (a package failing to compile),
/// which the package tests rule out.
pub fn build_device(plan: &DevicePlan, strip: bool) -> Vec<CorpusImage> {
    let mut cache: HashMap<String, (Vec<u8>, BuiltExecutable)> = HashMap::new();
    let mut images = Vec::with_capacity(plan.firmwares.len());
    for fwp in &plan.firmwares {
        let mut parts = Vec::new();
        let mut truth = Vec::new();
        for b in &fwp.builds {
            let disabled_refs: Vec<&str> = b.disabled.iter().map(String::as_str).collect();
            let key = format!(
                "{}:{}:{:?}:{}:{}:{}:{}",
                b.pkg.name,
                b.version,
                disabled_refs,
                plan.arch.name(),
                plan.toolchain.name,
                plan.filler_seed,
                plan.filler_count
            );
            let (bytes, built) = cache
                .entry(key)
                .or_insert_with(|| {
                    build_executable(
                        &b.pkg,
                        b.version,
                        &disabled_refs,
                        plan.arch,
                        &plan.toolchain,
                        plan.filler_seed,
                        plan.filler_count,
                        strip,
                    )
                })
                .clone();
            truth.push(built);
            parts.push(Part {
                name: b.pkg.executable.to_string(),
                data: bytes,
            });
        }
        let meta = ImageMeta {
            vendor: plan.vendor.to_string(),
            device: plan.model.clone(),
            version: fwp.version.clone(),
        };
        images.push(CorpusImage {
            blob: pack(&meta, &parts),
            meta,
            device: plan.device,
            is_latest: fwp.is_latest,
            arch: plan.arch,
            truth,
        });
    }
    images
}

/// Generate a corpus: draw the [`plan`], then [`build_device`] each
/// device in order. Byte-identical to the historical single-pass
/// generator for every `(seed, config)`.
///
/// # Panics
///
/// Panics only on internal corpus bugs (a package failing to compile),
/// which the package tests rule out.
pub fn generate(config: &CorpusConfig) -> Corpus {
    let plan = plan(config);
    let mut images = Vec::with_capacity(plan.image_count());
    for device in &plan.devices {
        images.extend(build_device(device, config.strip));
    }
    Corpus {
        images,
        config: config.clone(),
    }
}

#[allow(clippy::too_many_arguments)]
fn build_executable(
    pkg: &PackageSpec,
    version: &str,
    disabled: &[&str],
    arch: Arch,
    toolchain: &ToolchainProfile,
    filler_seed: u64,
    filler_count: usize,
    strip: bool,
) -> (Vec<u8>, BuiltExecutable) {
    let src = source_for(pkg.name, version, disabled, filler_seed, filler_count);
    let mut elf = compile_source(
        &src,
        arch,
        &CompilerOptions {
            profile: toolchain.clone(),
            layout: Default::default(),
        },
    )
    .unwrap_or_else(|e| panic!("corpus build {}/{version} on {arch}: {e}", pkg.name));
    let symbols: Vec<(String, u32, u32)> = elf
        .func_symbols()
        .iter()
        .map(|s| (s.name.clone(), s.value, s.size))
        .collect();
    let vuln_names = pkg.version(version).map(|v| v.vulnerable).unwrap_or(&[]);
    let vulnerable: Vec<(String, u32)> = symbols
        .iter()
        .filter(|(n, ..)| vuln_names.contains(&n.as_str()))
        .map(|(n, a, _)| (n.clone(), *a))
        .collect();
    if strip {
        elf.strip(pkg.library);
    }
    (
        elf.write(),
        BuiltExecutable {
            part_name: pkg.executable.to_string(),
            package: pkg.name.to_string(),
            version: version.to_string(),
            disabled_features: disabled.iter().map(|s| (*s).to_string()).collect(),
            symbols,
            vulnerable,
        },
    )
}

/// Build a **query** executable: the CVE package compiled like the
/// paper's queries ("the latest vulnerable version … compiled with
/// gcc 5.2 at the default optimization level"), not stripped.
///
/// # Panics
///
/// Panics on an unknown package; scan paths handling external input use
/// [`try_build_query`].
pub fn build_query(package_name: &str, arch: Arch) -> (firmup_obj::Elf, String) {
    try_build_query(package_name, arch).unwrap_or_else(|e| panic!("query build: {e}"))
}

/// Fallible [`build_query`]: unknown packages are a
/// [`crate::packages::PackageError`]. A compile failure of a *known*
/// package still panics — the package tests rule that out, so it is an
/// internal corpus bug, not an input condition.
///
/// # Errors
///
/// [`crate::packages::PackageError`] for unknown packages or a
/// versionless spec.
pub fn try_build_query(
    package_name: &str,
    arch: Arch,
) -> Result<(firmup_obj::Elf, String), crate::packages::PackageError> {
    let q = query_source(package_name)?;
    Ok((q.compile(arch), q.version.to_string()))
}

/// Everything a CVE query build consumes besides the target arch: the
/// query version, its generated MinC source, and the compiler options.
/// Persisted query records are keyed by a digest of exactly these
/// inputs (plus the arch and canonicalization config).
#[derive(Debug, Clone)]
pub struct QuerySource {
    /// Package name.
    pub package: &'static str,
    /// The latest version vulnerable to something (the query version).
    pub version: &'static str,
    /// Full MinC source of that version, no features disabled, no filler.
    pub source: String,
    /// Compiler options the query is built with.
    pub options: CompilerOptions,
}

impl QuerySource {
    /// Compile the query for `arch`.
    ///
    /// # Panics
    ///
    /// On a compile failure of a known package — an internal corpus bug
    /// the package tests rule out, not an input condition.
    pub fn compile(&self, arch: Arch) -> firmup_obj::Elf {
        compile_source(&self.source, arch, &self.options)
            .unwrap_or_else(|e| panic!("query build {} on {arch}: {e}", self.package))
    }
}

/// Generate the inputs of a query build for `package_name` (cheap: no
/// compilation).
///
/// # Errors
///
/// [`crate::packages::PackageError`] for unknown packages or a
/// versionless spec.
pub fn query_source(package_name: &str) -> Result<QuerySource, crate::packages::PackageError> {
    let pkg = crate::packages::package(package_name)
        .ok_or_else(|| crate::packages::PackageError::UnknownPackage(package_name.to_string()))?;
    // Latest version that is vulnerable to *something*.
    let version = pkg
        .versions
        .iter()
        .rev()
        .find(|v| !v.vulnerable.is_empty())
        .or_else(|| pkg.latest())
        .ok_or_else(|| crate::packages::PackageError::NoVersions(package_name.to_string()))?
        .version;
    Ok(QuerySource {
        package: pkg.name,
        version,
        source: crate::packages::try_source_for(pkg.name, version, &[], 0, 0)?,
        options: CompilerOptions::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::unpack;

    #[test]
    fn corpus_is_deterministic() {
        let a = generate(&CorpusConfig::tiny());
        let b = generate(&CorpusConfig::tiny());
        assert_eq!(a.images.len(), b.images.len());
        for (x, y) in a.images.iter().zip(&b.images) {
            assert_eq!(x.blob, y.blob);
            assert_eq!(x.meta, y.meta);
        }
    }

    #[test]
    fn plan_then_build_matches_generate() {
        // build_device is pure: building devices out of order must
        // reproduce generate()'s bytes exactly.
        let config = CorpusConfig::tiny();
        let whole = generate(&config);
        let p = plan(&config);
        assert_eq!(p.image_count(), whole.images.len());
        let mut rebuilt: Vec<Vec<CorpusImage>> = vec![Vec::new(); p.devices.len()];
        for (slot, dp) in p.devices.iter().enumerate().rev() {
            rebuilt[slot] = build_device(dp, config.strip);
        }
        let flat: Vec<&CorpusImage> = rebuilt.iter().flatten().collect();
        assert_eq!(flat.len(), whole.images.len());
        for (x, y) in flat.iter().zip(&whole.images) {
            assert_eq!(x.blob, y.blob);
            assert_eq!(x.meta, y.meta);
            assert_eq!(x.device, y.device);
            assert_eq!(x.is_latest, y.is_latest);
        }
    }

    #[test]
    fn scale_presets_parse_and_size() {
        for p in ScalePreset::all() {
            assert_eq!(ScalePreset::parse(p.name()), Some(p));
        }
        assert_eq!(ScalePreset::parse("nope"), None);
        assert_eq!(
            ScalePreset::Smoke.config().devices,
            CorpusConfig::default().devices
        );
        // Planning is cheap (no compilation) even at paper scale; check
        // the presets hit their advertised image counts.
        let medium = plan(&ScalePreset::Medium.config());
        assert!(
            medium.image_count() >= 500,
            "medium preset must plan >= 500 images, got {}",
            medium.image_count()
        );
        let paper = plan(&ScalePreset::Paper.config());
        assert!(
            paper.image_count() >= 2000,
            "paper preset must plan >= 2000 images, got {}",
            paper.image_count()
        );
    }

    #[test]
    fn images_unpack_and_parse() {
        let c = generate(&CorpusConfig::tiny());
        assert!(!c.images.is_empty());
        for img in &c.images {
            let u = unpack(&img.blob).unwrap();
            assert!(u.issues.is_empty(), "{}: {:?}", img.meta, u.issues);
            assert_eq!(u.parts.len(), img.truth.len());
            for part in &u.parts {
                let elf = firmup_obj::Elf::parse(&part.data).unwrap();
                assert!(
                    elf.text().is_some(),
                    "{}: {} has no text",
                    img.meta,
                    part.name
                );
            }
        }
    }

    #[test]
    fn stripping_respects_library_exports() {
        let c = generate(&CorpusConfig {
            devices: 6,
            ..CorpusConfig::tiny()
        });
        let mut saw_stripped = false;
        let mut saw_exported = false;
        for img in &c.images {
            let u = unpack(&img.blob).unwrap();
            for (part, t) in u.parts.iter().zip(&img.truth) {
                let elf = firmup_obj::Elf::parse(&part.data).unwrap();
                if t.package == "busybox" || !crate::packages::package(&t.package).unwrap().library
                {
                    assert!(elf.is_stripped(), "{} should be fully stripped", t.package);
                    saw_stripped = true;
                } else if !elf.symbols.is_empty() {
                    assert!(elf.symbols.iter().all(|s| s.global));
                    saw_exported = true;
                }
            }
        }
        assert!(saw_stripped);
        let _ = saw_exported; // libraries may or may not appear in a tiny corpus
    }

    #[test]
    fn ground_truth_records_vulnerable_procedures() {
        let c = generate(&CorpusConfig {
            devices: 9,
            max_firmware_versions: 2,
            ..CorpusConfig::tiny()
        });
        let vulns: usize = c
            .images
            .iter()
            .flat_map(|i| i.truth.iter().map(|t| t.vulnerable.len()))
            .sum();
        assert!(
            vulns > 0,
            "a 9-device corpus must contain vulnerable builds"
        );
        // Every vulnerable entry has a resolvable symbol.
        for img in &c.images {
            for t in &img.truth {
                for (name, addr) in &t.vulnerable {
                    assert_eq!(t.addr_of(name), Some(*addr));
                }
            }
        }
    }

    #[test]
    fn devices_have_exactly_one_latest() {
        let c = generate(&CorpusConfig {
            devices: 5,
            max_firmware_versions: 3,
            ..CorpusConfig::tiny()
        });
        let mut by_device: HashMap<usize, usize> = HashMap::new();
        for img in &c.images {
            if img.is_latest {
                *by_device.entry(img.device).or_default() += 1;
            }
        }
        assert_eq!(by_device.len(), 5);
        assert!(by_device.values().all(|&n| n == 1));
    }

    #[test]
    fn query_builds_are_not_stripped() {
        for arch in Arch::all() {
            let (elf, version) = build_query("wget", arch);
            assert!(!elf.is_stripped());
            assert!(elf.symbols.iter().any(|s| s.name == "ftp_retrieve_glob"));
            assert_eq!(version, "1.15", "latest vulnerable wget");
        }
    }

    #[test]
    fn unknown_query_package_is_an_error() {
        use crate::packages::PackageError;
        let e = try_build_query("definitely-not-a-package", Arch::Mips32).unwrap_err();
        assert_eq!(
            e,
            PackageError::UnknownPackage("definitely-not-a-package".into())
        );
    }

    #[test]
    fn corpus_counts() {
        let c = generate(&CorpusConfig::tiny());
        assert!(c.executable_count() >= c.images.len());
        assert!(
            c.procedure_count() > c.executable_count() * 10,
            "packages have many procedures"
        );
    }
}
