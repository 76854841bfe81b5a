//! Deployable artifacts and the simulated Android deployment of §4.5.
//!
//! `relay.build(...)` + `lib.export_library(dylib_path, ndk.create_shared)`
//! become: serialize the executor graph, params, and every linked external
//! module into one JSON artifact; "push" it to an [`AndroidDevice`], which
//! holds only the *runtime* (a [`LoaderRegistry`] of external-module
//! deserializers — no compiler), loads the artifact, and runs inference.

use crate::executor::{ExecError, GraphExecutor};
use crate::graph::ExecutorGraph;
use crate::module::{ExternalModule, ModuleRegistry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use tvmnp_hwsim::CostModel;

/// What went wrong exporting or loading an artifact, naming the file
/// involved so deployment scripts can report actionable errors.
#[derive(Debug)]
pub enum ArtifactError {
    /// The artifact could not be serialized to JSON.
    Serialize {
        /// Destination file.
        path: PathBuf,
        /// Underlying serde error.
        source: serde_json::Error,
    },
    /// Reading or writing the artifact file failed.
    Io {
        /// File involved.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// The file exists but does not parse as an artifact.
    Parse {
        /// Source file.
        path: PathBuf,
        /// Underlying serde error.
        source: serde_json::Error,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Serialize { path, source } => {
                write!(
                    f,
                    "{}: artifact does not serialize: {source}",
                    path.display()
                )
            }
            ArtifactError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            ArtifactError::Parse { path, source } => {
                write!(f, "{}: not a valid artifact: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Serialize { source, .. } | ArtifactError::Parse { source, .. } => {
                Some(source)
            }
            ArtifactError::Io { source, .. } => Some(source),
        }
    }
}

/// One serialized external module inside an artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExternalBlob {
    /// Global symbol.
    pub symbol: String,
    /// Producing compiler (selects the loader).
    pub compiler: String,
    /// Opaque serialized payload.
    pub payload: serde_json::Value,
}

/// The exported library: everything a runtime-only device needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Artifact {
    /// Artifact format version.
    pub version: u32,
    /// The lowered host graph (with params embedded).
    pub graph: ExecutorGraph,
    /// Serialized external modules.
    pub externals: Vec<ExternalBlob>,
}

impl Artifact {
    /// Bundle a lowered graph with its linked external modules.
    pub fn export(graph: &ExecutorGraph, modules: &[&dyn ExternalModule]) -> Artifact {
        let externals = modules
            .iter()
            .map(|m| ExternalBlob {
                symbol: m.symbol().to_string(),
                compiler: m.compiler().to_string(),
                payload: m.serialize(),
            })
            .collect();
        Artifact {
            version: 1,
            graph: graph.clone(),
            externals,
        }
    }

    /// Write to disk (the `export_library` call of Listing 6).
    pub fn export_library(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let path = path.as_ref();
        let json = serde_json::to_string(self).map_err(|source| ArtifactError::Serialize {
            path: path.to_path_buf(),
            source,
        })?;
        std::fs::write(path, json).map_err(|source| ArtifactError::Io {
            path: path.to_path_buf(),
            source,
        })
    }

    /// Read back from disk.
    pub fn load_library(path: impl AsRef<Path>) -> Result<Artifact, ArtifactError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path).map_err(|source| ArtifactError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        serde_json::from_str(&json).map_err(|source| ArtifactError::Parse {
            path: path.to_path_buf(),
            source,
        })
    }

    /// Artifact size in bytes when serialized (model-size discussions of
    /// §4.2 — quantized models produce much smaller artifacts).
    pub fn size_bytes(&self) -> usize {
        serde_json::to_string(self).map(|s| s.len()).unwrap_or(0)
    }
}

/// Deserializer for one compiler's external modules.
pub type ModuleLoader =
    Box<dyn Fn(&str, &serde_json::Value) -> Result<Box<dyn ExternalModule>, String> + Send + Sync>;

/// Compiler name → loader. The runtime-only side of the BYOC contract.
#[derive(Default)]
pub struct LoaderRegistry {
    loaders: HashMap<String, ModuleLoader>,
}

impl LoaderRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        LoaderRegistry::default()
    }

    /// Register a loader for `compiler`.
    pub fn register(&mut self, compiler: impl Into<String>, loader: ModuleLoader) {
        self.loaders.insert(compiler.into(), loader);
    }

    /// Instantiate every external module of an artifact.
    pub fn load_all(&self, artifact: &Artifact) -> Result<ModuleRegistry, String> {
        let mut registry = ModuleRegistry::new();
        for blob in &artifact.externals {
            let loader = self
                .loaders
                .get(&blob.compiler)
                .ok_or_else(|| format!("no runtime loader for compiler '{}'", blob.compiler))?;
            registry.register(loader(&blob.symbol, &blob.payload)?);
        }
        Ok(registry)
    }
}

/// A simulated Android phone: it owns a runtime (loaders + cost model) but
/// no compiler, mirroring §4.5's "the only thing we need to build from TVM
/// is the TVM runtime".
pub struct AndroidDevice {
    /// Device name for logs.
    pub name: String,
    loaders: LoaderRegistry,
    cost: CostModel,
}

impl AndroidDevice {
    /// New device with the given runtime loaders.
    pub fn new(name: impl Into<String>, loaders: LoaderRegistry, cost: CostModel) -> Self {
        AndroidDevice {
            name: name.into(),
            loaders,
            cost,
        }
    }

    /// Load a pushed artifact into a ready executor.
    pub fn load(&self, artifact: &Artifact) -> Result<GraphExecutor, ExecError> {
        let modules = self.loaders.load_all(artifact).map_err(ExecError::new)?;
        GraphExecutor::new(artifact.graph.clone(), modules, self.cost.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::test_support::NegateModule;
    use tvmnp_relay::builder;
    use tvmnp_relay::expr::{call_global, var, Function, Module};
    use tvmnp_relay::TensorType;
    use tvmnp_tensor::Tensor;

    fn partitioned_module() -> Module {
        let x = var("x", TensorType::f32([2]));
        let y = call_global("nir_0", vec![x.clone()]);
        let px = var("p", TensorType::f32([2]));
        let ext = Function::new(vec![px.clone()], builder::relu(px)).with_attr("Compiler", "fake");
        let mut m = Module::from_main(Function::new(vec![x], y));
        m.functions.insert("nir_0".into(), ext);
        m
    }

    fn fake_loaders() -> LoaderRegistry {
        let mut l = LoaderRegistry::new();
        l.register(
            "fake",
            Box::new(|_sym, payload| {
                let symbol = payload["symbol"]
                    .as_str()
                    .ok_or("missing symbol")?
                    .to_string();
                let time_us = payload["time_us"].as_f64().ok_or("missing time")?;
                Ok(Box::new(NegateModule::new(symbol, time_us)) as Box<dyn ExternalModule>)
            }),
        );
        l
    }

    #[test]
    fn export_load_run_roundtrip() {
        let m = partitioned_module();
        let graph = ExecutorGraph::build(&m).unwrap();
        let module = NegateModule::new("nir_0", 7.0);
        let artifact = Artifact::export(&graph, &[&module]);

        let dir = std::env::temp_dir().join("tvmnp_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lib.json");
        artifact.export_library(&path).unwrap();
        let loaded = Artifact::load_library(&path).unwrap();
        assert_eq!(loaded.version, 1);
        assert_eq!(loaded.externals.len(), 1);

        let phone = AndroidDevice::new("oppo-reno4z", fake_loaders(), CostModel::default());
        let mut ex = phone.load(&loaded).unwrap();
        ex.set_input("x", Tensor::from_f32([2], vec![3.0, -4.0]).unwrap())
            .unwrap();
        ex.run().unwrap();
        assert_eq!(ex.get_output(0).unwrap().as_f32().unwrap(), &[-3.0, 4.0]);
    }

    /// A file can hold what type inference would have refused: clip bounds
    /// that are not a range load fine and must fail the run, not abort it.
    #[test]
    fn loaded_clip_with_inverted_bounds_fails_the_run_without_panicking() {
        use crate::graph::NodeKind;
        use tvmnp_relay::OpKind;
        let x = var("x", TensorType::f32([3]));
        let y = builder::relu6(x.clone());
        let graph = ExecutorGraph::build(&Module::from_main(Function::new(vec![x], y))).unwrap();
        let mut artifact = Artifact::export(&graph, &[]);
        let clips = artifact
            .graph
            .nodes
            .iter_mut()
            .filter_map(|n| match &mut n.kind {
                NodeKind::Op {
                    op: OpKind::Clip(a),
                    ..
                } => Some(a),
                _ => None,
            });
        for a in clips {
            (a.min, a.max) = (6.0, 0.0);
        }
        let path = std::env::temp_dir().join("tvmnp_artifact_test_inverted_clip.json");
        artifact.export_library(&path).unwrap();
        let loaded = Artifact::load_library(&path).expect("the file parses");
        let phone = AndroidDevice::new("phone", LoaderRegistry::new(), CostModel::default());
        let mut ex = phone.load(&loaded).unwrap();
        ex.set_input("x", Tensor::from_f32([3], vec![-1.0, 3.0, 9.0]).unwrap())
            .unwrap();
        let err = ex.run().expect_err("inverted bounds are a kernel error");
        assert!(err.message().contains("not a range"), "{err}");
        assert_eq!(err.context().op.as_deref(), Some("clip"));
        assert!(ex.get_output(0).is_err(), "a failed run has no outputs");
    }

    /// A parameter whose shape lies about its payload is refused at the
    /// file boundary, not discovered by a kernel's slice bounds.
    #[test]
    fn loaded_tensor_with_lying_shape_is_a_parse_error() {
        use tvmnp_relay::Conv2dAttrs;
        let x = var("x", TensorType::f32([1, 1, 64, 64]));
        let w = Tensor::from_f32([1, 1, 2, 2], vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        let y = builder::conv2d(x.clone(), w, Conv2dAttrs::same(0));
        let graph = ExecutorGraph::build(&Module::from_main(Function::new(vec![x], y))).unwrap();
        let path = std::env::temp_dir().join("tvmnp_artifact_test_lying_shape.json");
        Artifact::export(&graph, &[]).export_library(&path).unwrap();
        let honest = std::fs::read_to_string(&path).unwrap();
        let param_shape = "\"quant\":null,\"shape\":[1,1,2,2]";
        assert_eq!(honest.matches(param_shape).count(), 1);
        assert!(Artifact::load_library(&path).is_ok());
        let lying = honest.replace(param_shape, "\"quant\":null,\"shape\":[1,1,64,64]");
        std::fs::write(&path, lying).unwrap();
        let err = Artifact::load_library(&path).unwrap_err();
        assert!(matches!(err, ArtifactError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("does not match shape"), "{err}");
    }

    #[test]
    fn missing_loader_fails() {
        let m = partitioned_module();
        let graph = ExecutorGraph::build(&m).unwrap();
        let module = NegateModule::new("nir_0", 7.0);
        let artifact = Artifact::export(&graph, &[&module]);
        let phone = AndroidDevice::new("bare", LoaderRegistry::new(), CostModel::default());
        assert!(phone.load(&artifact).is_err());
    }

    #[test]
    fn artifact_size_reported() {
        let m = partitioned_module();
        let graph = ExecutorGraph::build(&m).unwrap();
        let artifact = Artifact::export(&graph, &[]);
        assert!(artifact.size_bytes() > 0);
    }

    #[test]
    fn load_errors_name_the_file() {
        let missing = std::env::temp_dir().join("tvmnp_artifact_test_missing.json");
        let err = Artifact::load_library(&missing).unwrap_err();
        assert!(matches!(err, ArtifactError::Io { .. }));
        assert!(err.to_string().contains("tvmnp_artifact_test_missing.json"));

        let garbled = std::env::temp_dir().join("tvmnp_artifact_test_garbled.json");
        std::fs::write(&garbled, "{not json").unwrap();
        let err = Artifact::load_library(&garbled).unwrap_err();
        assert!(matches!(err, ArtifactError::Parse { .. }));
        assert!(err.to_string().contains("not a valid artifact"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
