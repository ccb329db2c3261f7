//! The benchmark's input: a seeded `small`-preset image fleet written to
//! disk, plus the generator's ground truth that findings are scored
//! against (never the scanner's own earlier output).

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use firmup::firmware::corpus::{build_device, plan, BuiltExecutable, CorpusImage, ScalePreset};
use firmup::firmware::packages::{all_cves, package, CveSpec};
use firmup::firmware::rng::SmallRng;
use firmup::pipeline::ScanFinding;

/// Directory (relative to the run's work directory) holding the images.
pub const IMAGE_DIR: &str = "corpus";

/// A generated fleet: image paths as handed to the program (relative to
/// the work directory, so executable ids are stable) and the truth of
/// every executable, keyed by the id the program gives it
/// (`<image path>:<part name>`).
pub struct Fleet {
    pub images: Vec<String>,
    pub truth: HashMap<String, BuiltExecutable>,
}

impl Fleet {
    /// Number of executables across all images.
    pub fn executables(&self) -> usize {
        self.truth.len()
    }

    /// Pre-strip procedures across all executables.
    pub fn procedures(&self) -> usize {
        self.truth.values().map(|t| t.symbols.len()).sum()
    }

    /// Planted vulnerable procedures the built-in CVE queries hunt: the
    /// recall denominator.
    pub fn planted(&self) -> usize {
        let cves = all_cves();
        self.truth
            .values()
            .map(|exe| {
                cves.iter()
                    .filter(|c| planted_addr(exe, c).is_some())
                    .count()
            })
            .sum()
    }
}

/// Generate the fleet for `seed` into `work/IMAGE_DIR` on `threads`
/// threads.
///
/// The device plan (vendors, architectures, toolchains, packages,
/// versions, filler counts) is the `small` preset's, so every seed has
/// the same images, executables and procedure count; the seed redraws
/// each device's filler-code seed, which changes the code of every
/// executable and with it every strand set, game and finding.
pub fn generate(seed: u64, work: &Path, threads: usize) -> std::io::Result<Fleet> {
    let mut plan = plan(&ScalePreset::Small.config());
    let mut rng = SmallRng::seed_from_u64(seed);
    for device in &mut plan.devices {
        device.filler_seed = rng.next_u64();
    }
    let next = AtomicUsize::new(0);
    let built: Mutex<Vec<Option<Vec<CorpusImage>>>> = Mutex::new(vec![None; plan.devices.len()]);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let d = next.fetch_add(1, Ordering::Relaxed);
                let Some(device) = plan.devices.get(d) else {
                    break;
                };
                let images = build_device(device, plan.config.strip);
                built.lock().expect("fleet build lock")[d] = Some(images);
            });
        }
    });
    let dir = work.join(IMAGE_DIR);
    std::fs::create_dir_all(&dir)?;
    let mut fleet = Fleet {
        images: Vec::new(),
        truth: HashMap::new(),
    };
    let devices = built.into_inner().expect("fleet build lock");
    for img in devices
        .into_iter()
        .flat_map(|d| d.expect("every device built"))
    {
        let path = format!(
            "{IMAGE_DIR}/{:03}_{}_{}_{}.fwim",
            fleet.images.len(),
            img.meta.vendor,
            img.meta.device,
            img.meta.version
        );
        std::fs::write(work.join(&path), &img.blob)?;
        for exe in img.truth {
            fleet.truth.insert(format!("{path}:{}", exe.part_name), exe);
        }
        fleet.images.push(path);
    }
    Ok(fleet)
}

/// Where `cve`'s procedure sits in `exe` if the generator planted it
/// there vulnerable: same package, a version whose spec lists the
/// procedure as vulnerable, and the procedure's pre-strip address.
fn planted_addr(exe: &BuiltExecutable, cve: &CveSpec) -> Option<u32> {
    if exe.package != cve.package {
        return None;
    }
    let vulnerable = package(cve.package)?
        .version(&exe.version)?
        .vulnerable
        .contains(&cve.procedure);
    vulnerable.then(|| exe.addr_of(cve.procedure)).flatten()
}

/// The paper's Table 2 scoring of one finding: confirmed iff its
/// address equals the generator's truth address and the executable's
/// version is vulnerable.
pub fn confirmed(truth: &HashMap<String, BuiltExecutable>, f: &ScanFinding) -> bool {
    truth
        .get(&f.target)
        .and_then(|exe| planted_addr(exe, &f.cve))
        .is_some_and(|addr| addr == f.addr)
}

/// `(precision, recall)` of `findings` against the fleet's truth.
/// Precision is 1 for an empty finding list (nothing claimed wrongly).
pub fn score(fleet: &Fleet, findings: &[ScanFinding]) -> (f64, f64) {
    let hits = findings
        .iter()
        .filter(|f| confirmed(&fleet.truth, f))
        .count() as f64;
    let precision = if findings.is_empty() {
        1.0
    } else {
        hits / findings.len() as f64
    };
    (precision, hits / fleet.planted().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vsftpd_cve() -> CveSpec {
        all_cves()
            .into_iter()
            .find(|c| c.package == "vsftpd")
            .expect("vsftpd CVE")
    }

    /// A vsftpd build at `version` whose CVE procedure sits at 0x4000.
    fn truth_at(version: &str) -> HashMap<String, BuiltExecutable> {
        let cve = vsftpd_cve();
        let exe = BuiltExecutable {
            part_name: "bin/vsftpd".into(),
            package: "vsftpd".into(),
            version: version.into(),
            disabled_features: Vec::new(),
            symbols: vec![(cve.procedure.to_string(), 0x4000, 64)],
            vulnerable: Vec::new(),
        };
        HashMap::from([("img:bin/vsftpd".to_string(), exe)])
    }

    fn finding(addr: u32) -> ScanFinding {
        ScanFinding {
            cve: vsftpd_cve(),
            version: String::new(),
            target: "img:bin/vsftpd".into(),
            addr,
            sim: 10,
            steps: 1,
            explain: None,
        }
    }

    /// `(vulnerable, patched)` vsftpd version strings for the CVE.
    fn versions() -> (&'static str, &'static str) {
        let cve = vsftpd_cve();
        let spec = package("vsftpd").expect("vsftpd spec");
        let pick = |want: bool| {
            spec.versions
                .iter()
                .find(|v| v.vulnerable.contains(&cve.procedure) == want)
                .expect("both kinds of version exist")
                .version
        };
        (pick(true), pick(false))
    }

    #[test]
    fn right_address_on_vulnerable_version_is_confirmed() {
        let (vulnerable, _) = versions();
        assert!(confirmed(&truth_at(vulnerable), &finding(0x4000)));
    }

    #[test]
    fn match_on_patched_version_is_a_false_positive() {
        let (_, patched) = versions();
        assert!(!confirmed(&truth_at(patched), &finding(0x4000)));
    }

    #[test]
    fn wrong_address_is_a_false_positive() {
        let (vulnerable, _) = versions();
        assert!(!confirmed(&truth_at(vulnerable), &finding(0x4004)));
        let mut unknown = finding(0x4000);
        unknown.target = "other:bin/vsftpd".into();
        assert!(!confirmed(&truth_at(vulnerable), &unknown));
    }
}
