//! The compiled-code differential oracle: proves the **generated C and
//! Rust stubs** faithful to the fast-path interpreter by actually
//! compiling and running them.
//!
//! For one spec, [`Oracle::build`] emits the stub source for its
//! [`Backend`] — the C header (`devil_codegen::emit_c`) or the Rust
//! module (`devil_codegen::emit_rust`, see [`crate::compiled_rust`]) —
//! wraps it in a generated harness — a bus shim replacing the port
//! primitives with a logging register file, plus a command dispatcher
//! over the emitted stub surface — and compiles the pair with `cc` or
//! `rustc`. Artifacts are content-hashed, so repeated runs and CI caches
//! reuse the binary until the emitter or the spec changes. Both
//! harnesses speak one command protocol ([`commands`]) and print one
//! observation-line format.
//!
//! [`check_compiled`] then replays an op stream — single accesses and
//! [`Op::Super`] calls alike — through the compiled binary and through
//! [`DeviceInstance`] ([`interp_observation`]) and root-compares the
//! two line streams ([`rooted_verdict`]): every bus operation in order,
//! every read result and superplan output, and the final cache state
//! (raw values, validity flags, memory cells). A mismatch bisects to
//! the first divergent line.
//!
//! Ops the stub surface cannot express (family variables, accesses
//! without an emittable plan, block transfers, superplans without a
//! compiled body) are filtered out of the stream — identically for both
//! sides — by [`stub_ops`].

use crate::superfuzz::blocks_of;
use crate::{Op, Rig};
use devil_codegen::StubApi;
use devil_ir::DeviceIr;
use devil_runtime::{DeviceInstance, FakeAccess};
use hwsim::mmr::{self, bisect_divergence, Hash, Mmr};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A stub back end the oracle can compile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `emit_c` output, compiled with `cc`.
    C,
    /// `emit_rust` output, compiled with `rustc`.
    Rust,
}

impl Backend {
    /// The compiler this back end invokes.
    fn compiler(self) -> &'static str {
        match self {
            Backend::C => "cc",
            Backend::Rust => "rustc",
        }
    }

    /// Whether the back end's compiler is reachable (the oracle is
    /// skipped, loudly, where it is not).
    pub fn available(self) -> bool {
        Command::new(self.compiler())
            .arg("--version")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok()
    }
}

/// A per-spec compiled stub harness.
pub struct Oracle {
    /// The back end the stubs were emitted for.
    pub backend: Backend,
    /// Spec name (doubles as the C identifier prefix).
    pub name: String,
    /// Path of the compiled harness binary.
    pub bin: PathBuf,
}

/// The decoded shim address layout: Devil port index in the high bits,
/// register offset below. Must match the generated harness.
const PORT_SHIFT: u64 = 40;

/// Runs one compiler invocation, turning a failure into its stderr.
fn compile(name: &str, cmd: &mut Command) -> Result<(), String> {
    let out = cmd.output().map_err(|e| format!("{cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{:?} failed for {name}:\n{}",
            cmd.get_program(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

impl Oracle {
    /// Emits, generates and compiles the harness for one spec into
    /// `dir`. The binary is content-hashed over the generated sources,
    /// so unchanged emitter + spec reuse the artifact.
    pub fn build(
        backend: Backend,
        name: &str,
        ir: &DeviceIr,
        dir: &Path,
    ) -> Result<Oracle, String> {
        let api = StubApi::of(ir);
        // (binary prefix, stub + harness source, support source)
        let (prefix, main, support) = match backend {
            Backend::C => ("oracle", harness_c(ir, name, &api), devil_codegen::emit_c(ir, name)),
            Backend::Rust => (
                "roracle",
                crate::compiled_rust::harness_rs(ir, &api, &devil_codegen::emit_rust(ir)),
                crate::compiled_rust::shim_crate(),
            ),
        };
        let hash = fnv1a(support.as_bytes()) ^ fnv1a(main.as_bytes()).rotate_left(1);
        let stem = format!("{name}_{hash:016x}");
        let bin = dir.join(format!("{prefix}_{stem}"));
        let oracle = Oracle { backend, name: name.into(), bin };
        if oracle.bin.exists() {
            return Ok(oracle);
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // Compile to a temp name and rename, so concurrent builders
        // never observe a half-written binary.
        let tmp = dir.join(format!("{prefix}_{stem}.tmp.{}", std::process::id()));
        match backend {
            Backend::C => {
                let h_path = dir.join(format!("{stem}.h"));
                let c_path = dir.join(format!("{stem}.c"));
                write(&h_path, &support)?;
                // The shim half of the harness precedes the include:
                // the header's `static inline` superplan bodies must
                // bind the bus primitives to the shim at their
                // definition site, not only at the macro-stub use
                // sites in `main`.
                write(&c_path, &main.replace("@INCLUDE@", &format!("#include \"{stem}.h\"")))?;
                compile(name, Command::new("cc").arg("-O1").arg("-o").arg(&tmp).arg(&c_path))?;
            }
            Backend::Rust => {
                // The `devil_runtime` stand-in as an rlib, then the
                // harness (the emitted module embedded verbatim) linked
                // against it, so the module's `use devil_runtime::…`
                // resolves exactly as against the real runtime.
                let rt_src = dir.join(format!("{stem}_rt.rs"));
                let rt_lib = dir.join(format!("lib{stem}_rt.rlib"));
                let hs_src = dir.join(format!("{stem}.rs"));
                write(&rt_src, &support)?;
                write(&hs_src, &main)?;
                let rustc = || {
                    let mut c = Command::new("rustc");
                    c.args(["--edition", "2021", "-O"]);
                    c
                };
                compile(
                    name,
                    rustc()
                        .args(["--crate-type", "rlib", "--crate-name", "devil_runtime", "-o"])
                        .arg(&rt_lib)
                        .arg(&rt_src),
                )?;
                let mut extern_rt = std::ffi::OsString::from("devil_runtime=");
                extern_rt.push(&rt_lib);
                compile(
                    name,
                    rustc().arg("--extern").arg(extern_rt).arg("-o").arg(&tmp).arg(&hs_src),
                )?;
            }
        }
        std::fs::rename(&tmp, &oracle.bin).map_err(|e| format!("{}: {e}", oracle.bin.display()))?;
        Ok(oracle)
    }

    /// Runs the harness over a command stream, returning its output
    /// lines. Stdin is fed from a thread so large streams cannot
    /// deadlock against a full stdout pipe.
    pub fn run(&self, commands: String) -> Result<Vec<String>, String> {
        let mut child = Command::new(&self.bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", self.bin.display()))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let writer = std::thread::spawn(move || {
            let _ = stdin.write_all(commands.as_bytes());
        });
        let out = child.wait_with_output().map_err(|e| format!("harness: {e}"))?;
        let _ = writer.join();
        if !out.status.success() {
            return Err(format!(
                "{:?} harness for {} exited with {:?}:\n{}",
                self.backend,
                self.name,
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        Ok(String::from_utf8_lossy(&out.stdout).lines().map(str::to_string).collect())
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Filters an op stream down to what the emitted stub surface can
/// express; both sides of the oracle replay exactly this subset.
pub fn stub_ops(ir: &DeviceIr, api: &StubApi, ops: &[Op]) -> Vec<Op> {
    ops.iter()
        .filter(|op| match op {
            Op::ReadVar { vid, args } => args.is_empty() && api.reads_var(*vid),
            Op::WriteVar { vid, args, .. } => args.is_empty() && api.writes_var(*vid),
            Op::ReadStruct { sid } => {
                api.read_structs.contains(sid)
                    && ir.strct(*sid).fields.iter().all(|&f| api.gets_field(f))
            }
            Op::WriteStruct { sid, values } => {
                api.write_structs.contains(sid)
                    && ir
                        .strct(*sid)
                        .fields
                        .iter()
                        .all(|&f| api.stages_field(f) && values.iter().any(|&(vf, _)| vf == f))
            }
            Op::Preset { .. } => true,
            Op::ReadBlock { .. } | Op::WriteBlock { .. } => false,
            Op::Super(call) => api.emits_superplan(call.sid),
        })
        .cloned()
        .collect()
}

/// Renders a filtered op stream as the harness's command protocol,
/// ending with the `D` state dump.
pub fn commands(ir: &DeviceIr, api: &StubApi, ops: &[Op]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for op in ops {
        let _ = match op {
            Op::Preset { port, offset, value } => writeln!(out, "P {port} {offset} {value}"),
            Op::ReadVar { vid, .. } => {
                let k = api.read_vars.iter().position(|v| v == vid).expect("filtered");
                writeln!(out, "RV {k}")
            }
            Op::WriteVar { vid, value, .. } => {
                let k = api.write_vars.iter().position(|v| v == vid).expect("filtered");
                writeln!(out, "WV {k} {value}")
            }
            Op::ReadStruct { sid } => {
                let k = api.read_structs.iter().position(|s| s == sid).expect("filtered");
                writeln!(out, "RS {k}")
            }
            Op::WriteStruct { sid, values } => {
                let k = api.write_structs.iter().position(|s| s == sid).expect("filtered");
                let _ = write!(out, "WS {k}");
                // Values in struct-field order, as the harness stages.
                for &fid in ir.strct(*sid).fields.iter() {
                    let v = values.iter().find(|&&(f, _)| f == fid).expect("filtered").1;
                    let _ = write!(out, " {v}");
                }
                writeln!(out)
            }
            Op::Super(call) => {
                // `SP` dispatch with operands, then the block payload
                // and the read-block length where the superplan has
                // those ops.
                let k = api.superplans.iter().position(|&s| s == call.sid).expect("filtered");
                let _ = write!(out, "SP {k}");
                for &a in &call.args {
                    let _ = write!(out, " {a}");
                }
                let (has_out, has_in) = blocks_of(ir, call.sid);
                if has_out {
                    let _ = write!(out, " {}", call.block_out.len());
                    for &w in &call.block_out {
                        let _ = write!(out, " {w}");
                    }
                }
                if has_in {
                    let _ = write!(out, " {}", call.block_in_len);
                }
                writeln!(out)
            }
            Op::ReadBlock { .. } | Op::WriteBlock { .. } => unreachable!("filtered"),
        };
    }
    out.push_str("D\n");
    out
}

/// Replays a filtered op stream through the fast-path interpreter,
/// superplan calls fused, producing the canonical observation lines the
/// harness must match: interleaved bus traffic and results (superplan
/// outputs and read-block words included), then the final cache dump.
pub fn interp_observation(ir: &DeviceIr, ops: &[Op]) -> Vec<String> {
    let mut inst = DeviceInstance::new(ir.clone());
    let mut dev = FakeAccess::new();
    let mut out = Vec::new();
    let mut logged = 0usize;
    for op in ops {
        let line = match op {
            Op::Preset { port, offset, value } => {
                dev.preset(*port, *offset, *value);
                continue;
            }
            Op::ReadVar { vid, args } => match inst.read_id(&mut dev, *vid, args) {
                Ok(v) => format!("O r{} {v}", vid.0),
                Err(e) => format!("O r{} ERR {e:?}", vid.0),
            },
            Op::WriteVar { vid, args, value } => {
                match inst.write_id(&mut dev, *vid, args, *value) {
                    Ok(()) => format!("O w{} ok", vid.0),
                    Err(e) => format!("O w{} ERR {e:?}", vid.0),
                }
            }
            Op::ReadStruct { sid } => match inst.read_struct_id(&mut dev, *sid) {
                Ok(()) => {
                    flush_bus(&dev, &mut out, &mut logged);
                    out.push(format!("O rs{} ok", sid.0));
                    for &fid in ir.strct(*sid).fields.iter() {
                        out.push(match inst.get_field_id(fid) {
                            Ok(v) => format!("O f{} {v}", fid.0),
                            Err(e) => format!("O f{} ERR {e:?}", fid.0),
                        });
                    }
                    continue;
                }
                Err(e) => format!("O rs{} ERR {e:?}", sid.0),
            },
            Op::WriteStruct { sid, values } => {
                let mut failed = None;
                for &fid in ir.strct(*sid).fields.iter() {
                    let v = values.iter().find(|&&(f, _)| f == fid).expect("filtered").1;
                    if let Err(e) = inst.set_field_id(fid, v) {
                        failed = Some(format!("O ws{} ERR {e:?}", sid.0));
                        break;
                    }
                }
                failed.unwrap_or_else(|| match inst.write_struct_id(&mut dev, *sid) {
                    Ok(()) => format!("O ws{} ok", sid.0),
                    Err(e) => format!("O ws{} ERR {e:?}", sid.0),
                })
            }
            Op::Super(call) => {
                let (r, outs, block_in) = call.run(Rig::Fast, &mut inst, &mut dev);
                flush_bus(&dev, &mut out, &mut logged);
                out.push(match r {
                    Ok(()) => format!("O sp{} ok", call.sid),
                    Err(e) => format!("O sp{} ERR {e:?}", call.sid),
                });
                out.extend(outs.iter().enumerate().map(|(j, v)| format!("O o{j} {v}")));
                out.extend(block_in.iter().map(|v| format!("O bi {v}")));
                continue;
            }
            Op::ReadBlock { .. } | Op::WriteBlock { .. } => unreachable!("filtered"),
        };
        flush_bus(&dev, &mut out, &mut logged);
        out.push(line);
    }
    dump_state(ir, &inst, &mut out);
    out
}

fn flush_bus(dev: &FakeAccess, out: &mut Vec<String>, logged: &mut usize) {
    for &(w, port, offset, value) in &dev.log[*logged..] {
        out.push(format!("B {} {port} {offset} {value}", if w { "W" } else { "R" }));
    }
    *logged = dev.log.len();
}

/// The final cache dump, in the exact order the harness prints it.
fn dump_state(ir: &DeviceIr, inst: &DeviceInstance, out: &mut Vec<String>) {
    let (slots, valid) = inst.cache_snapshot();
    for reg in &ir.regs {
        if let Some(slot) = reg.slot {
            out.push(format!("C {} {} {}", reg.name, slots[slot], u8::from(valid[slot])));
        }
    }
    let mem = inst.mem_snapshot();
    for var in &ir.vars {
        if let Some(cell) = var.mem_cell {
            out.push(format!("M {} {}", var.name, mem[cell]));
        }
    }
}

/// Generates the C harness around an emitted header: the logging bus
/// shim plus a command dispatcher over the stub surface.
pub fn harness_c(ir: &DeviceIr, prefix: &str, api: &StubApi) -> String {
    use std::fmt::Write as _;
    let mut c = String::new();
    let _ = writeln!(c, "#include <stdio.h>");
    let _ = writeln!(c, "#include <stdlib.h>");
    let _ = writeln!(c, "#include <string.h>");
    let _ = writeln!(c);
    // The bus shim: a linear (addr, value) register file. Reads of
    // untouched addresses return 0, exactly like the Rust FakeAccess.
    let _ = writeln!(c, "#define SHIM_CAP 65536");
    let _ = writeln!(c, "static unsigned long long shim_addr[SHIM_CAP];");
    let _ = writeln!(c, "static unsigned long long shim_val[SHIM_CAP];");
    let _ = writeln!(c, "static int shim_n = 0;");
    let _ = writeln!(c);
    let _ = writeln!(c, "static int shim_find(unsigned long long addr) {{");
    let _ = writeln!(c, "    for (int i = 0; i < shim_n; i++)");
    let _ = writeln!(c, "        if (shim_addr[i] == addr) return i;");
    let _ = writeln!(c, "    return -1;");
    let _ = writeln!(c, "}}");
    let _ = writeln!(c);
    let _ = writeln!(c, "static void shim_set(unsigned long long addr, unsigned long long v) {{");
    let _ = writeln!(c, "    int i = shim_find(addr);");
    let _ = writeln!(c, "    if (i < 0) {{");
    let _ = writeln!(c, "        if (shim_n >= SHIM_CAP) abort();");
    let _ = writeln!(c, "        i = shim_n++;");
    let _ = writeln!(c, "        shim_addr[i] = addr;");
    let _ = writeln!(c, "    }}");
    let _ = writeln!(c, "    shim_val[i] = v;");
    let _ = writeln!(c, "}}");
    let _ = writeln!(c);
    let _ = writeln!(c, "static unsigned long long shim_in(unsigned long long addr) {{");
    let _ = writeln!(c, "    int i = shim_find(addr);");
    let _ = writeln!(c, "    unsigned long long v = i < 0 ? 0 : shim_val[i];");
    let _ = writeln!(
        c,
        "    printf(\"B R %llu %llu %llu\\n\", addr >> {PORT_SHIFT}, addr & ((1ULL << {PORT_SHIFT}) - 1), v);"
    );
    let _ = writeln!(c, "    return v;");
    let _ = writeln!(c, "}}");
    let _ = writeln!(c);
    let _ = writeln!(c, "static void shim_out(unsigned long long v, unsigned long long addr) {{");
    let _ = writeln!(c, "    shim_set(addr, v);");
    let _ = writeln!(
        c,
        "    printf(\"B W %llu %llu %llu\\n\", addr >> {PORT_SHIFT}, addr & ((1ULL << {PORT_SHIFT}) - 1), v);"
    );
    let _ = writeln!(c, "}}");
    let _ = writeln!(c);
    for io in ["inb", "inw", "inl"] {
        let _ = writeln!(c, "#define {io} shim_in");
    }
    for io in ["outb", "outw", "outl"] {
        let _ = writeln!(c, "#define {io} shim_out");
    }
    // The harness supplies its own block primitives (per-word through
    // the shim, so the log shows every bus cycle like FakeAccess does)
    // and suppresses the header's <sys/io.h>-backed defaults.
    let _ = writeln!(c, "#define DEVIL_NO_SYS_IO 1");
    for w in [8u32, 16, 32] {
        let _ = writeln!(
            c,
            "#define devil_ins{w}(p, b, n) do {{ unsigned long __i; \\\n    for (__i = 0; __i < (unsigned long)(n); ++__i) (b)[__i] = shim_in(p); }} while (0)"
        );
        let _ = writeln!(
            c,
            "#define devil_outs{w}(p, b, n) do {{ unsigned long __i; \\\n    for (__i = 0; __i < (unsigned long)(n); ++__i) shim_out((b)[__i], (p)); }} while (0)"
        );
    }
    let _ = writeln!(c);
    let _ = writeln!(c, "@INCLUDE@");
    let _ = writeln!(c);
    let _ = writeln!(c, "struct {prefix}_cache_t {prefix}_cache;");
    let _ = writeln!(c);
    let _ = writeln!(c, "int main(void) {{");
    let _ = writeln!(c, "    for (int p = 0; p < {}; p++)", ir.ports.len());
    let _ =
        writeln!(c, "        {prefix}_cache.__dil_base__[p] = (unsigned long)p << {PORT_SHIFT};");
    let _ = writeln!(c, "    char cmd[16];");
    let _ = writeln!(c, "    while (scanf(\"%15s\", cmd) == 1) {{");
    let _ = writeln!(c, "        if (!strcmp(cmd, \"P\")) {{");
    let _ = writeln!(c, "            unsigned long long p, o, v;");
    let _ = writeln!(c, "            if (scanf(\"%llu %llu %llu\", &p, &o, &v) != 3) return 1;");
    let _ = writeln!(c, "            shim_set((p << {PORT_SHIFT}) + o, v);");
    let _ = writeln!(c, "        }} else if (!strcmp(cmd, \"RV\")) {{");
    let _ = writeln!(c, "            int k;");
    let _ = writeln!(c, "            if (scanf(\"%d\", &k) != 1) return 1;");
    let _ = writeln!(c, "            switch (k) {{");
    for (k, &vid) in api.read_vars.iter().enumerate() {
        let var = ir.var(vid);
        let call = if var.mem_cell.is_none() && var.parent.is_some() {
            format!("{prefix}_read_{}", var.name)
        } else {
            format!("{prefix}_get_{}", var.name)
        };
        let _ = writeln!(
            c,
            "            case {k}: printf(\"O r{} %llu\\n\", (unsigned long long)({call}())); break;",
            vid.0
        );
    }
    let _ = writeln!(c, "            default: return 1;");
    let _ = writeln!(c, "            }}");
    let _ = writeln!(c, "        }} else if (!strcmp(cmd, \"WV\")) {{");
    let _ = writeln!(c, "            int k; unsigned long long v;");
    let _ = writeln!(c, "            if (scanf(\"%d %llu\", &k, &v) != 2) return 1;");
    let _ = writeln!(c, "            switch (k) {{");
    for (k, &vid) in api.write_vars.iter().enumerate() {
        let var = ir.var(vid);
        let _ = writeln!(
            c,
            "            case {k}: {prefix}_set_{}(v); printf(\"O w{} ok\\n\"); break;",
            var.name, vid.0
        );
    }
    let _ = writeln!(c, "            default: return 1;");
    let _ = writeln!(c, "            }}");
    let _ = writeln!(c, "        }} else if (!strcmp(cmd, \"RS\")) {{");
    let _ = writeln!(c, "            int k;");
    let _ = writeln!(c, "            if (scanf(\"%d\", &k) != 1) return 1;");
    let _ = writeln!(c, "            switch (k) {{");
    for (k, &sid) in api.read_structs.iter().enumerate() {
        let st = ir.strct(sid);
        let _ = writeln!(c, "            case {k}:");
        let _ = writeln!(c, "                {prefix}_get_{}();", st.name);
        let _ = writeln!(c, "                printf(\"O rs{} ok\\n\");", sid.0);
        for &fid in st.fields.iter() {
            let _ = writeln!(
                c,
                "                printf(\"O f{} %llu\\n\", (unsigned long long)({prefix}_getf_{}()));",
                fid.0,
                ir.var(fid).name
            );
        }
        let _ = writeln!(c, "                break;");
    }
    let _ = writeln!(c, "            default: return 1;");
    let _ = writeln!(c, "            }}");
    let _ = writeln!(c, "        }} else if (!strcmp(cmd, \"WS\")) {{");
    let _ = writeln!(c, "            int k;");
    let _ = writeln!(c, "            if (scanf(\"%d\", &k) != 1) return 1;");
    let _ = writeln!(c, "            switch (k) {{");
    for (k, &sid) in api.write_structs.iter().enumerate() {
        let st = ir.strct(sid);
        let _ = writeln!(c, "            case {k}: {{");
        let _ = writeln!(c, "                unsigned long long fv[{}];", st.fields.len().max(1));
        let _ = writeln!(c, "                for (int i = 0; i < {}; i++)", st.fields.len());
        let _ = writeln!(c, "                    if (scanf(\"%llu\", &fv[i]) != 1) return 1;");
        for (i, &fid) in st.fields.iter().enumerate() {
            let _ = writeln!(c, "                {prefix}_setf_{}(fv[{i}]);", ir.var(fid).name);
        }
        let _ = writeln!(c, "                {prefix}_put_{}();", st.name);
        let _ = writeln!(c, "                printf(\"O ws{} ok\\n\");", sid.0);
        let _ = writeln!(c, "                break; }}");
    }
    let _ = writeln!(c, "            default: return 1;");
    let _ = writeln!(c, "            }}");
    let _ = writeln!(c, "        }} else if (!strcmp(cmd, \"SP\")) {{");
    let _ = writeln!(c, "            int k;");
    let _ = writeln!(c, "            if (scanf(\"%d\", &k) != 1) return 1;");
    let _ = writeln!(c, "            switch (k) {{");
    for (k, &si) in api.superplans.iter().enumerate() {
        let sp = &ir.superplans()[si];
        let (has_out, has_in) = blocks_of(ir, si);
        let _ = writeln!(c, "            case {k}: {{");
        let _ = writeln!(c, "                unsigned long long a[{}];", sp.args.max(1));
        let _ = writeln!(c, "                unsigned long long outs[{}];", sp.outputs.max(1));
        let _ = writeln!(c, "                unsigned long long bo[512], bi[512];");
        let _ = writeln!(c, "                unsigned long bon = 0, bin = 0;");
        let _ = writeln!(c, "                (void)a; (void)outs; (void)bo; (void)bi;");
        let _ = writeln!(c, "                (void)bon; (void)bin;");
        for i in 0..sp.args {
            let _ = writeln!(c, "                if (scanf(\"%llu\", &a[{i}]) != 1) return 1;");
        }
        if has_out {
            let _ = writeln!(c, "                if (scanf(\"%lu\", &bon) != 1) return 1;");
            let _ = writeln!(c, "                if (bon > 512) return 1;");
            let _ = writeln!(c, "                for (unsigned long i = 0; i < bon; i++)");
            let _ = writeln!(c, "                    if (scanf(\"%llu\", &bo[i]) != 1) return 1;");
        }
        if has_in {
            let _ = writeln!(c, "                if (scanf(\"%lu\", &bin) != 1) return 1;");
            let _ = writeln!(c, "                if (bin > 512) return 1;");
        }
        let mut call: Vec<String> = (0..sp.args).map(|i| format!("a[{i}]")).collect();
        if sp.outputs > 0 {
            call.push("outs".into());
        }
        if has_out {
            call.push("bo".into());
            call.push("bon".into());
        }
        if has_in {
            call.push("bi".into());
            call.push("bin".into());
        }
        let _ = writeln!(c, "                {prefix}_sp_{}({});", sp.name, call.join(", "));
        let _ = writeln!(c, "                printf(\"O sp{si} ok\\n\");");
        for j in 0..sp.outputs {
            let _ = writeln!(c, "                printf(\"O o{j} %llu\\n\", outs[{j}]);");
        }
        if has_in {
            let _ = writeln!(c, "                for (unsigned long i = 0; i < bin; i++)");
            let _ = writeln!(c, "                    printf(\"O bi %llu\\n\", bi[i]);");
        }
        let _ = writeln!(c, "                break; }}");
    }
    let _ = writeln!(c, "            default: return 1;");
    let _ = writeln!(c, "            }}");
    let _ = writeln!(c, "        }} else if (!strcmp(cmd, \"D\")) {{");
    for reg in &ir.regs {
        if reg.slot.is_some() {
            let _ = writeln!(
                c,
                "            printf(\"C {} %llu %d\\n\", {prefix}_cache.cache_{}, (int){prefix}_cache.valid_{});",
                reg.name, reg.name, reg.name
            );
        }
    }
    for var in &ir.vars {
        if var.mem_cell.is_some() {
            let _ = writeln!(
                c,
                "            printf(\"M {} %llu\\n\", {prefix}_cache.mem_{});",
                var.name, var.name
            );
        }
    }
    let _ = writeln!(c, "        }} else {{");
    let _ = writeln!(c, "            return 1;");
    let _ = writeln!(c, "        }}");
    let _ = writeln!(c, "    }}");
    let _ = writeln!(c, "    return 0;");
    let _ = writeln!(c, "}}");
    c
}

/// Replays `ops` (pre-filtering them to the stub surface) through the
/// compiled stubs and the fast-path interpreter and root-compares the
/// two observation streams: identical bus logs, results, superplan
/// outputs and read-block contents, and final cache state.
pub fn check_compiled(
    oracle: &Oracle,
    ir: &DeviceIr,
    api: &StubApi,
    ops: &[Op],
) -> Result<Hash, String> {
    let kept = stub_ops(ir, api, ops);
    let want = interp_observation(ir, &kept);
    let got = oracle.run(commands(ir, api, &kept))?;
    let surface = match oracle.backend {
        Backend::C => "C stubs",
        Backend::Rust => "Rust stubs",
    };
    rooted_verdict(&oracle.name, surface, &want, &got)
}

/// The first differing line between the two observation streams.
fn first_line_diff(want: &[String], got: &[String]) -> String {
    for (i, (w, g)) in want.iter().zip(got.iter()).enumerate() {
        if w != g {
            return format!("line {i}:\n  interpreter: {w}\n  compiled:    {g}");
        }
    }
    format!(
        "lengths differ: interpreter {} vs compiled {} lines\n  interpreter tail: {:?}\n  compiled tail:    {:?}",
        want.len(),
        got.len(),
        want.iter().skip(got.len().min(want.len())).take(3).collect::<Vec<_>>(),
        got.iter().skip(want.len().min(got.len())).take(3).collect::<Vec<_>>(),
    )
}

/// Folds observation lines into a retained MMR, one leaf per line, so
/// two streams compare as 32-byte roots and divergences bisect to a
/// line index in O(log N) hash compares.
fn lines_mmr(lines: &[String]) -> Mmr {
    let mut m = Mmr::retained();
    m.reserve(lines.len());
    for l in lines {
        m.push_leaf(mmr::leaf_hash(l.as_bytes()));
    }
    m
}

/// The root-compare core of [`check_compiled`]: hashes both observation
/// streams into MMRs, returns the agreed root or an error naming the
/// bisected first divergent line. Public so sensitivity tests can
/// inject skewed streams directly.
pub fn rooted_verdict(
    name: &str,
    surface: &str,
    want_lines: &[String],
    got_lines: &[String],
) -> Result<Hash, String> {
    let want = lines_mmr(want_lines);
    let got = lines_mmr(got_lines);
    let root = want.root();
    if root == got.root() {
        return Ok(root);
    }
    let d = bisect_divergence(&want, &got).expect("roots differ, so the forests must");
    let i = d.leaf as usize;
    Err(format!(
        "{name}: compiled {surface} diverge from the interpreter; bisection names \
         observation line {i} in {} hash compares\n  interpreter: {}\n  compiled:    {}\n  {}",
        d.compares,
        want_lines.get(i).map_or("<stream ended>", String::as_str),
        got_lines.get(i).map_or("<stream ended>", String::as_str),
        first_line_diff(want_lines, got_lines),
    ))
}
