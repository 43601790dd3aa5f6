//! Resolved machine models.
//!
//! A [`MachineModel`] maps abstract resource demands (floating-point
//! operations, bytes loaded or stored, bytes moved across an interconnect,
//! quantum operations, raw time) to wall-clock seconds.  Machine models can be
//! built programmatically with [`MachineBuilder`], taken from the built-in
//! library in [`crate::builtin`], or resolved from a parsed ASPEN document.

use crate::ast::{Document, ResourceDef};
use crate::error::{AspenError, Result};
use crate::expr::{Expr, ParamEnv};
use std::collections::BTreeMap;

/// How a quantity of a resource is converted into seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum RateKind {
    /// `seconds = latency + quantity * seconds_per_unit * trait_multipliers`.
    Linear {
        /// Seconds consumed by one unit of the resource at the base rate.
        seconds_per_unit: f64,
        /// Fixed start-up latency charged once per execute block (seconds).
        latency: f64,
    },
    /// `seconds = mapping(quantity)`, where the mapping expression references
    /// the formal argument by name (used for custom resources such as the
    /// D-Wave `QuOps` declaration in the paper's Fig. 5).
    Mapping {
        /// Formal argument name bound to the demanded quantity.
        arg: String,
        /// Mapping expression producing seconds.
        expr: Expr,
    },
}

/// The conversion rule for a single named resource.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceRate {
    /// Resource name (`flops`, `loads`, `stores`, `intracomm`, `QuOps`, ...).
    pub name: String,
    /// Conversion rule.
    pub kind: RateKind,
    /// Multipliers applied to the per-unit cost when the application clause
    /// carries the matching trait (e.g. `simd` → 0.125).  Multipliers for
    /// traits not requested are not applied; requested traits without an
    /// entry are ignored.
    pub trait_multipliers: BTreeMap<String, f64>,
    /// Name of the hardware component that provides this rate (for reports).
    pub provider: String,
}

impl ResourceRate {
    /// A resource whose base throughput is `units_per_second`.
    pub fn per_second(name: impl Into<String>, units_per_second: f64) -> Self {
        Self {
            name: name.into(),
            kind: RateKind::Linear {
                seconds_per_unit: 1.0 / units_per_second,
                latency: 0.0,
            },
            trait_multipliers: BTreeMap::new(),
            provider: String::new(),
        }
    }

    /// A resource that costs `seconds_per_unit` seconds per unit.
    pub fn seconds_per_unit(name: impl Into<String>, seconds_per_unit: f64) -> Self {
        Self {
            name: name.into(),
            kind: RateKind::Linear {
                seconds_per_unit,
                latency: 0.0,
            },
            trait_multipliers: BTreeMap::new(),
            provider: String::new(),
        }
    }

    /// A resource defined by an arbitrary mapping expression, as produced by
    /// `resource Name(arg) [expr]` declarations.
    pub fn from_mapping(name: impl Into<String>, arg: impl Into<String>, expr: Expr) -> Self {
        Self {
            name: name.into(),
            kind: RateKind::Mapping {
                arg: arg.into(),
                expr,
            },
            trait_multipliers: BTreeMap::new(),
            provider: String::new(),
        }
    }

    /// Attach a fixed per-block latency (only meaningful for linear rates).
    pub fn with_latency(mut self, latency: f64) -> Self {
        if let RateKind::Linear {
            latency: ref mut l, ..
        } = self.kind
        {
            *l = latency;
        }
        self
    }

    /// Attach a trait multiplier.
    pub fn with_trait(mut self, name: impl Into<String>, multiplier: f64) -> Self {
        self.trait_multipliers.insert(name.into(), multiplier);
        self
    }

    /// Record the providing component name.
    pub fn with_provider(mut self, provider: impl Into<String>) -> Self {
        self.provider = provider.into();
        self
    }

    /// Convert a quantity of this resource (with the given traits requested)
    /// into seconds.
    pub fn seconds_for(&self, quantity: f64, traits: &[String]) -> Result<f64> {
        match &self.kind {
            RateKind::Linear {
                seconds_per_unit,
                latency,
            } => {
                let mut per_unit = *seconds_per_unit;
                for t in traits {
                    if let Some(m) = self.trait_multipliers.get(t) {
                        per_unit *= m;
                    }
                }
                let time = latency + quantity * per_unit;
                if time.is_finite() {
                    Ok(time)
                } else {
                    Err(AspenError::NonFinite {
                        context: format!("resource `{}` with quantity {quantity}", self.name),
                    })
                }
            }
            RateKind::Mapping { arg, expr } => {
                let env = ParamEnv::new().with(arg.clone(), quantity);
                let mut time = expr.eval(&env)?;
                for t in traits {
                    if let Some(m) = self.trait_multipliers.get(t) {
                        time *= m;
                    }
                }
                Ok(time)
            }
        }
    }

    /// Effective sustained rate in units/second for reporting (evaluated at a
    /// quantity of one unit, without traits).
    pub fn nominal_units_per_second(&self) -> f64 {
        match &self.kind {
            RateKind::Linear {
                seconds_per_unit, ..
            } => 1.0 / seconds_per_unit,
            RateKind::Mapping { arg, expr } => {
                let env = ParamEnv::new().with(arg.clone(), 1.0);
                match expr.eval(&env) {
                    Ok(seconds) if seconds > 0.0 => 1.0 / seconds,
                    _ => f64::NAN,
                }
            }
        }
    }
}

/// Description of a hardware component recorded for reporting purposes.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentInfo {
    /// Component name (e.g. `intel_xeon_e5_2680`).
    pub name: String,
    /// Component kind keyword (`socket`, `core`, `memory`, `link`).
    pub kind: String,
    /// Multiplicity within its parent.
    pub count: f64,
    /// Resources this component provides.
    pub provides: Vec<String>,
}

/// A fully resolved machine model: a set of resource rates plus descriptive
/// metadata about the components that provide them.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Machine name.
    pub name: String,
    rates: BTreeMap<String, ResourceRate>,
    /// Numeric properties (qubit counts, clock rates, ...).
    pub properties: BTreeMap<String, f64>,
    /// Components recorded during resolution, in declaration order.
    pub components: Vec<ComponentInfo>,
}

impl MachineModel {
    /// Create an empty machine model with the standard time pseudo-resources
    /// (`seconds`, `milliseconds`, `microseconds`, `nanoseconds`) installed.
    pub fn new(name: impl Into<String>) -> Self {
        let mut model = Self {
            name: name.into(),
            rates: BTreeMap::new(),
            properties: BTreeMap::new(),
            components: Vec::new(),
        };
        model.set_rate(ResourceRate::seconds_per_unit("seconds", 1.0).with_provider("time"));
        model.set_rate(ResourceRate::seconds_per_unit("milliseconds", 1e-3).with_provider("time"));
        model.set_rate(ResourceRate::seconds_per_unit("microseconds", 1e-6).with_provider("time"));
        model.set_rate(ResourceRate::seconds_per_unit("nanoseconds", 1e-9).with_provider("time"));
        model
    }

    /// Install (or replace) a resource rate.
    pub fn set_rate(&mut self, rate: ResourceRate) {
        self.rates.insert(rate.name.clone(), rate);
    }

    /// Install a resource rate only if no provider exists yet.
    ///
    /// Resolution of hierarchical machine descriptions uses this so that the
    /// first declared provider of a resource (the host CPU in the paper's
    /// `SIMPLE` node) services that resource for the whole machine.
    pub fn set_rate_if_absent(&mut self, rate: ResourceRate) {
        self.rates.entry(rate.name.clone()).or_insert(rate);
    }

    /// Look up a resource rate.
    pub fn rate(&self, resource: &str) -> Option<&ResourceRate> {
        self.rates.get(resource)
    }

    /// Whether the machine can service a resource.
    pub fn supports(&self, resource: &str) -> bool {
        self.rates.contains_key(resource)
    }

    /// Convert a resource demand into seconds.
    pub fn seconds_for(&self, resource: &str, quantity: f64, traits: &[String]) -> Result<f64> {
        let rate = self
            .rates
            .get(resource)
            .ok_or_else(|| AspenError::UnsupportedResource {
                resource: resource.to_string(),
            })?;
        rate.seconds_for(quantity, traits)
    }

    /// Iterate over all resource rates in name order.
    pub fn rates(&self) -> impl Iterator<Item = &ResourceRate> {
        self.rates.values()
    }

    /// Set a named numeric property.
    pub fn set_property(&mut self, name: impl Into<String>, value: f64) {
        self.properties.insert(name.into(), value);
    }

    /// Read a named numeric property.
    pub fn property(&self, name: &str) -> Option<f64> {
        self.properties.get(name).copied()
    }

    /// Resolve a machine declared in a parsed document, consulting `library`
    /// for components referenced but not declared in the document itself
    /// (this plays the role of ASPEN's `include` directives).
    pub fn from_document(
        doc: &Document,
        machine_name: &str,
        library: &dyn ComponentLibrary,
    ) -> Result<Self> {
        let machine = doc
            .machines
            .iter()
            .find(|m| m.name == machine_name)
            .ok_or_else(|| AspenError::UnknownEntity {
                kind: "machine",
                name: machine_name.to_string(),
            })?;
        let mut model = MachineModel::new(machine_name);
        let env = ParamEnv::new();
        for node_ref in &machine.contains {
            let count = node_ref.count.eval(&env)?;
            let node = doc
                .nodes
                .iter()
                .find(|n| n.name == node_ref.name)
                .ok_or_else(|| AspenError::UnknownEntity {
                    kind: "node",
                    name: node_ref.name.clone(),
                })?;
            model.components.push(ComponentInfo {
                name: node.name.clone(),
                kind: "node".into(),
                count,
                provides: Vec::new(),
            });
            for socket_ref in &node.contains {
                let socket_count = socket_ref.count.eval(&env)?;
                resolve_socket(doc, &socket_ref.name, socket_count, library, &mut model)?;
            }
        }
        Ok(model)
    }
}

/// A source of pre-defined hardware components, playing the role of ASPEN's
/// include tree.  [`crate::builtin::BuiltinLibrary`] is the standard
/// implementation.
pub trait ComponentLibrary {
    /// Return the resource rates and properties provided by the named
    /// component, or `None` if the library does not know the component.
    fn lookup(&self, name: &str) -> Option<ComponentSpec>;
}

/// The resources and properties contributed by one library component.
#[derive(Debug, Clone, Default)]
pub struct ComponentSpec {
    /// Component kind keyword for reporting (`socket`, `memory`, `link`).
    pub kind: String,
    /// Resource rates the component provides.
    pub rates: Vec<ResourceRate>,
    /// Numeric properties contributed to the machine.
    pub properties: Vec<(String, f64)>,
}

/// A library that knows no components; useful for fully self-contained
/// documents and for tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptyLibrary;

impl ComponentLibrary for EmptyLibrary {
    fn lookup(&self, _name: &str) -> Option<ComponentSpec> {
        None
    }
}

fn resolve_socket(
    doc: &Document,
    socket_name: &str,
    count: f64,
    library: &dyn ComponentLibrary,
    model: &mut MachineModel,
) -> Result<()> {
    let env = ParamEnv::new();
    if let Some(socket) = doc.socket(socket_name) {
        let mut provides = Vec::new();
        // Resources declared directly on the socket.
        for def in &socket.resources {
            let rate = resource_rate_from_def(def, socket_name, &socket.properties)?;
            provides.push(rate.name.clone());
            model.set_rate_if_absent(rate);
        }
        // Cores contained in the socket.
        for core_ref in &socket.contains {
            let core_count = core_ref.count.eval(&env)?;
            if let Some(core) = doc.core(&core_ref.name) {
                for def in &core.resources {
                    let rate = resource_rate_from_def(def, &core_ref.name, &core.properties)?;
                    provides.push(rate.name.clone());
                    model.set_rate_if_absent(rate);
                }
                model.components.push(ComponentInfo {
                    name: core_ref.name.clone(),
                    kind: "core".into(),
                    count: count * core_count,
                    provides: core.resources.iter().map(|r| r.name.clone()).collect(),
                });
            } else if let Some(spec) = library.lookup(&core_ref.name) {
                install_spec(&core_ref.name, &spec, count * core_count, model);
            } else {
                return Err(AspenError::UnknownEntity {
                    kind: "core",
                    name: core_ref.name.clone(),
                });
            }
        }
        // Attached memory and link components come from the document or the
        // library.
        for attached in [socket.memory.as_ref(), socket.link.as_ref()]
            .into_iter()
            .flatten()
        {
            if let Some(mem) = doc.memories.iter().find(|m| &m.name == attached) {
                for def in &mem.resources {
                    model.set_rate_if_absent(resource_rate_from_def(
                        def,
                        attached,
                        &mem.properties,
                    )?);
                }
            } else if let Some(link) = doc.links.iter().find(|l| &l.name == attached) {
                for def in &link.resources {
                    model.set_rate_if_absent(resource_rate_from_def(
                        def,
                        attached,
                        &link.properties,
                    )?);
                }
            } else if let Some(spec) = library.lookup(attached) {
                install_spec(attached, &spec, count, model);
            }
            // Unknown attachments are tolerated: the paper's Fig. 5 socket
            // references `gddr5` without ever using it in the analysis.
        }
        model.components.push(ComponentInfo {
            name: socket_name.to_string(),
            kind: "socket".into(),
            count,
            provides,
        });
        Ok(())
    } else if let Some(spec) = library.lookup(socket_name) {
        install_spec(socket_name, &spec, count, model);
        Ok(())
    } else {
        Err(AspenError::UnknownEntity {
            kind: "socket",
            name: socket_name.to_string(),
        })
    }
}

fn install_spec(name: &str, spec: &ComponentSpec, count: f64, model: &mut MachineModel) {
    let mut provides = Vec::new();
    for rate in &spec.rates {
        provides.push(rate.name.clone());
        model.set_rate_if_absent(rate.clone().with_provider(name));
    }
    for (key, value) in &spec.properties {
        model.properties.insert(key.clone(), *value);
    }
    model.components.push(ComponentInfo {
        name: name.to_string(),
        kind: if spec.kind.is_empty() {
            "socket".into()
        } else {
            spec.kind.clone()
        },
        count,
        provides,
    });
}

fn resource_rate_from_def(
    def: &ResourceDef,
    provider: &str,
    properties: &[crate::ast::PropertyDecl],
) -> Result<ResourceRate> {
    // Properties of the declaring component may be referenced inside the
    // mapping expression; inline them into a copy of the expression
    // environment by rewriting the mapping into a Mapping rate evaluated with
    // the properties bound.
    let mut prop_env = ParamEnv::new();
    for p in properties {
        let value = p.value.eval(&prop_env)?;
        prop_env.set(p.name.clone(), value);
    }
    // If the mapping only references the formal argument and properties, we
    // can pre-substitute properties by evaluating the expression with the
    // argument left symbolic.  The simplest robust approach: keep the Mapping
    // kind and extend its environment at evaluation time by baking properties
    // into the expression via substitution of known values.
    let expr = substitute_known(&def.mapping, &prop_env);
    let mut rate = ResourceRate::from_mapping(&def.name, &def.arg, expr).with_provider(provider);
    for t in &def.traits {
        let m = t.multiplier.eval(&prop_env)?;
        rate = rate.with_trait(t.name.clone(), m);
    }
    Ok(rate)
}

/// Replace parameter references that are bound in `env` with literal values.
fn substitute_known(expr: &Expr, env: &ParamEnv) -> Expr {
    match expr {
        Expr::Number(v) => Expr::Number(*v),
        Expr::Param(name) => match env.get(name) {
            Ok(v) => Expr::Number(v),
            Err(_) => Expr::Param(name.clone()),
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(substitute_known(lhs, env)),
            rhs: Box::new(substitute_known(rhs, env)),
        },
        Expr::Neg(inner) => Expr::Neg(Box::new(substitute_known(inner, env))),
        Expr::Call { function, args } => Expr::Call {
            function: function.clone(),
            args: args.iter().map(|a| substitute_known(a, env)).collect(),
        },
    }
}

/// Fluent builder for machine models.
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    model: MachineModel,
}

impl MachineBuilder {
    /// Start building a machine with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            model: MachineModel::new(name),
        }
    }

    /// Add a resource rate (replacing any existing provider).
    pub fn rate(mut self, rate: ResourceRate) -> Self {
        self.model.set_rate(rate);
        self
    }

    /// Add a numeric property.
    pub fn property(mut self, name: impl Into<String>, value: f64) -> Self {
        self.model.set_property(name, value);
        self
    }

    /// Record a component for reporting.
    pub fn component(mut self, info: ComponentInfo) -> Self {
        self.model.components.push(info);
        self
    }

    /// Finish building.
    pub fn build(self) -> MachineModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    #[test]
    fn linear_rate_applies_traits() {
        let rate = ResourceRate::per_second("flops", 1e9)
            .with_trait("simd", 0.125)
            .with_trait("fmad", 0.5);
        // Base: 1e9 flops take 1 second.
        assert!((rate.seconds_for(1e9, &[]).unwrap() - 1.0).abs() < 1e-12);
        // With simd+fmad the same work takes 1/16 of the time.
        let t = rate
            .seconds_for(1e9, &["simd".into(), "fmad".into()])
            .unwrap();
        assert!((t - 1.0 / 16.0).abs() < 1e-12);
        // Unknown traits are ignored.
        let t = rate.seconds_for(1e9, &["sp".into()]).unwrap();
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_is_charged_once() {
        let rate = ResourceRate::per_second("loads", 1e9).with_latency(1e-6);
        let t = rate.seconds_for(0.0, &[]).unwrap();
        assert!((t - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn mapping_rate_matches_quops_listing() {
        // resource QuOps(number) [number * 20/1000000]
        let expr = crate::parser::parse_expr("number * 20/1000000").unwrap();
        let rate = ResourceRate::from_mapping("QuOps", "number", expr);
        let t = rate.seconds_for(4.0, &[]).unwrap();
        assert!((t - 80e-6).abs() < 1e-12);
        assert!((rate.nominal_units_per_second() - 50_000.0).abs() < 1e-6);
    }

    #[test]
    fn machine_has_time_pseudo_resources() {
        let m = MachineModel::new("empty");
        assert!(m.supports("microseconds"));
        let t = m.seconds_for("microseconds", 320.0, &[]).unwrap();
        assert!((t - 320e-6).abs() < 1e-12);
    }

    #[test]
    fn unsupported_resource_is_error() {
        let m = MachineModel::new("empty");
        assert!(matches!(
            m.seconds_for("QuOps", 1.0, &[]).unwrap_err(),
            AspenError::UnsupportedResource { .. }
        ));
    }

    #[test]
    fn first_provider_wins() {
        let mut m = MachineModel::new("node");
        m.set_rate_if_absent(ResourceRate::per_second("flops", 1e9).with_provider("cpu"));
        m.set_rate_if_absent(ResourceRate::per_second("flops", 1e12).with_provider("gpu"));
        assert_eq!(m.rate("flops").unwrap().provider, "cpu");
    }

    #[test]
    fn builder_builds() {
        let m = MachineBuilder::new("test")
            .rate(ResourceRate::per_second("flops", 2e9))
            .property("qubits", 1152.0)
            .build();
        assert_eq!(m.property("qubits"), Some(1152.0));
        assert!((m.seconds_for("flops", 2e9, &[]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn resolve_self_contained_document() {
        let doc = parse_document(
            r#"
            machine Tiny { [1] OneNode nodes }
            node OneNode { [1] simple_socket sockets }
            socket simple_socket {
                [1] simple_core cores
            }
            core simple_core {
                property peak [1e9]
                resource flops(n) [n / peak] with simd [0.125]
            }
            "#,
        )
        .unwrap();
        let m = MachineModel::from_document(&doc, "Tiny", &EmptyLibrary).unwrap();
        assert!(m.supports("flops"));
        let t = m.seconds_for("flops", 1e9, &[]).unwrap();
        assert!((t - 1.0).abs() < 1e-12);
        let t = m.seconds_for("flops", 1e9, &["simd".into()]).unwrap();
        assert!((t - 0.125).abs() < 1e-12);
        assert!(m.components.iter().any(|c| c.name == "simple_core"));
    }

    #[test]
    fn resolve_unknown_machine_is_error() {
        let doc = parse_document("machine A { [1] B nodes } node B { }").unwrap();
        assert!(matches!(
            MachineModel::from_document(&doc, "Missing", &EmptyLibrary).unwrap_err(),
            AspenError::UnknownEntity {
                kind: "machine",
                ..
            }
        ));
    }

    #[test]
    fn resolve_unknown_socket_is_error() {
        let doc = parse_document("machine A { [1] B nodes } node B { [1] ghost sockets }").unwrap();
        assert!(matches!(
            MachineModel::from_document(&doc, "A", &EmptyLibrary).unwrap_err(),
            AspenError::UnknownEntity { kind: "socket", .. }
        ));
    }
}
