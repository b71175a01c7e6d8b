//! IR types: operations, functions, architectures (paper Table I).

use hgnas_autograd::EdgeMessage;
use hgnas_tensor::reduce::Reduction;
use std::fmt;

/// Aggregator choices for the aggregate operation (Tab. I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregator {
    /// Sum of messages.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum (DGCNN's choice).
    Max,
    /// Arithmetic mean.
    Mean,
}

impl Aggregator {
    /// All aggregators in Tab. I order.
    pub const ALL: [Aggregator; 4] = [
        Aggregator::Sum,
        Aggregator::Min,
        Aggregator::Max,
        Aggregator::Mean,
    ];

    /// The tensor reduction this aggregator maps to.
    pub fn reduction(self) -> Reduction {
        match self {
            Aggregator::Sum => Reduction::Sum,
            Aggregator::Min => Reduction::Min,
            Aggregator::Max => Reduction::Max,
            Aggregator::Mean => Reduction::Mean,
        }
    }

    /// Stable index for feature encoding.
    pub fn index(self) -> usize {
        match self {
            Aggregator::Sum => 0,
            Aggregator::Min => 1,
            Aggregator::Max => 2,
            Aggregator::Mean => 3,
        }
    }
}

impl fmt::Display for Aggregator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Aggregator::Sum => "sum",
            Aggregator::Min => "min",
            Aggregator::Max => "max",
            Aggregator::Mean => "mean",
        };
        f.write_str(s)
    }
}

/// Message-construction choices (Tab. I): how the per-edge message between a
/// target node `i` and a sampled source neighbour `j` is assembled from the
/// current features `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// `x_j` — the neighbour's features.
    SourcePos,
    /// `x_i` — the node's own features.
    TargetPos,
    /// `x_j − x_i`.
    RelPos,
    /// `‖x_j − x_i‖₂` (a 1-wide message).
    Distance,
    /// `x_j ‖ (x_j − x_i)`.
    SourceRel,
    /// `x_i ‖ (x_j − x_i)` — EdgeConv's message.
    TargetRel,
    /// `x_i ‖ x_j ‖ (x_j − x_i)`.
    Full,
}

impl MessageType {
    /// All message types in Tab. I order.
    pub const ALL: [MessageType; 7] = [
        MessageType::SourcePos,
        MessageType::TargetPos,
        MessageType::RelPos,
        MessageType::Distance,
        MessageType::SourceRel,
        MessageType::TargetRel,
        MessageType::Full,
    ];

    /// The tape's edge message that builds this message type.
    pub fn edge_message(self) -> EdgeMessage {
        match self {
            MessageType::SourcePos => EdgeMessage::Source,
            MessageType::TargetPos => EdgeMessage::Target,
            MessageType::RelPos => EdgeMessage::Rel,
            MessageType::Distance => EdgeMessage::Distance,
            MessageType::SourceRel => EdgeMessage::SourceRel,
            MessageType::TargetRel => EdgeMessage::TargetRel,
            MessageType::Full => EdgeMessage::Full,
        }
    }

    /// Message width given the current feature width `c`.
    pub fn width(self, c: usize) -> usize {
        self.edge_message().width(c)
    }

    /// Stable index for feature encoding.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&m| m == self).unwrap()
    }
}

impl fmt::Display for MessageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageType::SourcePos => "Source pos",
            MessageType::TargetPos => "Target pos",
            MessageType::RelPos => "Rel pos",
            MessageType::Distance => "Distance",
            MessageType::SourceRel => "Source||Rel pos",
            MessageType::TargetRel => "Target||Rel pos",
            MessageType::Full => "Full",
        };
        f.write_str(s)
    }
}

/// Graph-construction choices (Tab. I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleFn {
    /// Exact K-nearest-neighbour graph in the *current feature space*.
    Knn,
    /// Uniform random neighbours.
    Random,
}

impl SampleFn {
    /// All sampling functions.
    pub const ALL: [SampleFn; 2] = [SampleFn::Knn, SampleFn::Random];

    /// Stable index for feature encoding.
    pub fn index(self) -> usize {
        match self {
            SampleFn::Knn => 0,
            SampleFn::Random => 1,
        }
    }
}

impl fmt::Display for SampleFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SampleFn::Knn => "KNN",
            SampleFn::Random => "Random",
        })
    }
}

/// Connection choices (Tab. I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnectFn {
    /// Skip-connection: merge the saved skip register into the current
    /// features (elementwise add when widths match, concat otherwise).
    Skip,
    /// Identity: pass through.
    Identity,
}

impl ConnectFn {
    /// All connection functions.
    pub const ALL: [ConnectFn; 2] = [ConnectFn::Skip, ConnectFn::Identity];

    /// Stable index for feature encoding.
    pub fn index(self) -> usize {
        match self {
            ConnectFn::Skip => 0,
            ConnectFn::Identity => 1,
        }
    }
}

impl fmt::Display for ConnectFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConnectFn::Skip => "Skip",
            ConnectFn::Identity => "Identity",
        })
    }
}

/// Hidden widths available to the combine operation (Tab. I).
pub const COMBINE_DIMS: [usize; 6] = [8, 16, 32, 64, 128, 256];

/// One placed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Graph (re)construction.
    Sample(SampleFn),
    /// Message construction + neighbour reduction.
    Aggregate {
        /// Reduction applied over the neighbourhood.
        agg: Aggregator,
        /// How per-edge messages are assembled.
        msg: MessageType,
    },
    /// Per-node dense transform to `dim` features (ReLU applied).
    Combine {
        /// Output width; one of [`COMBINE_DIMS`].
        dim: usize,
    },
    /// Identity / skip connection.
    Connect(ConnectFn),
}

/// The operation *type* alone — what Stage 2 of the search chooses per
/// position (attributes come from the position's [`FunctionSet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpType {
    /// Graph construction.
    Sample,
    /// Neighbour aggregation.
    Aggregate,
    /// Dense transform.
    Combine,
    /// Identity/skip.
    Connect,
}

impl OpType {
    /// All operation types.
    pub const ALL: [OpType; 4] = [
        OpType::Sample,
        OpType::Aggregate,
        OpType::Combine,
        OpType::Connect,
    ];

    /// Stable index for feature encoding.
    pub fn index(self) -> usize {
        match self {
            OpType::Sample => 0,
            OpType::Aggregate => 1,
            OpType::Combine => 2,
            OpType::Connect => 3,
        }
    }
}

impl fmt::Display for OpType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpType::Sample => "Sample",
            OpType::Aggregate => "Aggregate",
            OpType::Combine => "Combine",
            OpType::Connect => "Connect",
        })
    }
}

/// A complete function assignment for one half of the supernet (Stage 1's
/// search unit): for each operation type, which function/attributes it uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FunctionSet {
    /// Aggregator used by aggregate ops.
    pub aggregator: Aggregator,
    /// Message type used by aggregate ops.
    pub message: MessageType,
    /// Sampling function used by sample ops.
    pub sample: SampleFn,
    /// Connection function used by connect ops.
    pub connect: ConnectFn,
    /// Width used by combine ops.
    pub combine_dim: usize,
}

impl FunctionSet {
    /// DGCNN-flavoured default (EdgeConv message, max aggregator, KNN).
    pub fn dgcnn_like(combine_dim: usize) -> Self {
        FunctionSet {
            aggregator: Aggregator::Max,
            message: MessageType::TargetRel,
            sample: SampleFn::Knn,
            connect: ConnectFn::Skip,
            combine_dim,
        }
    }

    /// Instantiates an operation of `ty` with this set's attributes.
    pub fn instantiate(&self, ty: OpType) -> Operation {
        match ty {
            OpType::Sample => Operation::Sample(self.sample),
            OpType::Aggregate => Operation::Aggregate {
                agg: self.aggregator,
                msg: self.message,
            },
            OpType::Combine => Operation::Combine {
                dim: self.combine_dim,
            },
            OpType::Connect => Operation::Connect(self.connect),
        }
    }

    /// Samples a uniformly random function set (Stage-1 search material).
    pub fn random<R: rand::Rng>(rng: &mut R) -> Self {
        FunctionSet {
            aggregator: Aggregator::ALL[rng.gen_range(0..Aggregator::ALL.len())],
            message: MessageType::ALL[rng.gen_range(0..MessageType::ALL.len())],
            sample: SampleFn::ALL[rng.gen_range(0..SampleFn::ALL.len())],
            connect: ConnectFn::ALL[rng.gen_range(0..ConnectFn::ALL.len())],
            combine_dim: COMBINE_DIMS[rng.gen_range(0..COMBINE_DIMS.len())],
        }
    }

    /// Number of distinct function sets (the Stage-1 space per half).
    pub fn space_size() -> u64 {
        (Aggregator::ALL.len()
            * MessageType::ALL.len()
            * SampleFn::ALL.len()
            * ConnectFn::ALL.len()
            * COMBINE_DIMS.len()) as u64
    }
}

impl Operation {
    /// This operation's type.
    pub fn op_type(&self) -> OpType {
        match self {
            Operation::Sample(_) => OpType::Sample,
            Operation::Aggregate { .. } => OpType::Aggregate,
            Operation::Combine { .. } => OpType::Combine,
            Operation::Connect(_) => OpType::Connect,
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Sample(s) => write!(f, "{s}"),
            Operation::Aggregate { agg, msg } => write!(f, "Aggregate ({msg}, {agg})"),
            Operation::Combine { dim } => write!(f, "Combine ({dim})"),
            Operation::Connect(c) => write!(f, "{c}"),
        }
    }
}

/// A complete candidate architecture: the placed operations plus the
/// execution hyperparameters shared by every model in an experiment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Architecture {
    /// The operation at each position.
    pub ops: Vec<Operation>,
    /// Neighbour fanout used by sample/aggregate (DGCNN uses 20).
    pub k: usize,
    /// Classifier output classes.
    pub classes: usize,
}

impl Architecture {
    /// Creates an architecture.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty, `k == 0`, or `classes == 0`.
    pub fn new(ops: Vec<Operation>, k: usize, classes: usize) -> Self {
        assert!(!ops.is_empty(), "architecture needs at least one op");
        assert!(k > 0 && classes > 0, "k and classes must be positive");
        Architecture { ops, k, classes }
    }

    /// Builds an architecture from op types and the two half function sets,
    /// as the multi-stage search does: positions `0..N/2` use `upper`,
    /// positions `N/2..N` use `lower`.
    pub fn from_genome(
        types: &[OpType],
        upper: FunctionSet,
        lower: FunctionSet,
        k: usize,
        classes: usize,
    ) -> Self {
        let half = types.len() / 2;
        let ops = types
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                if i < half {
                    upper.instantiate(t)
                } else {
                    lower.instantiate(t)
                }
            })
            .collect();
        Architecture::new(ops, k, classes)
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if there are no positions (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Traces feature widths through the pipeline: returns the width *after*
    /// each position, given 3-D point inputs. Mirrors the executor exactly;
    /// both the model builder and the lowering use this single source of
    /// truth.
    pub fn dim_trace(&self, in_dim: usize) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.ops.len());
        let mut cur = in_dim;
        let mut skip = in_dim;
        for op in &self.ops {
            cur = match *op {
                Operation::Sample(_) => cur,
                Operation::Aggregate { msg, .. } => msg.width(cur),
                Operation::Combine { dim } => dim,
                Operation::Connect(ConnectFn::Identity) => cur,
                Operation::Connect(ConnectFn::Skip) => {
                    let merged = if cur == skip { cur } else { cur + skip };
                    skip = merged;
                    merged
                }
            };
            dims.push(cur);
        }
        dims
    }

    /// Width of the final node features.
    pub fn out_dim(&self, in_dim: usize) -> usize {
        *self.dim_trace(in_dim).last().unwrap()
    }

    /// Samples a uniformly random architecture from the *full* fine-grained
    /// space (independent op + function choice per position). This is how
    /// the predictor's training set is generated (paper Sec. IV-A: "30K
    /// randomly sampled architectures in our fine-grained design space").
    pub fn random<R: rand::Rng>(rng: &mut R, positions: usize, k: usize, classes: usize) -> Self {
        assert!(positions > 0, "need at least one position");
        let ops = (0..positions)
            .map(|_| match rng.gen_range(0..4) {
                0 => Operation::Sample(SampleFn::ALL[rng.gen_range(0..SampleFn::ALL.len())]),
                1 => Operation::Aggregate {
                    agg: Aggregator::ALL[rng.gen_range(0..Aggregator::ALL.len())],
                    msg: MessageType::ALL[rng.gen_range(0..MessageType::ALL.len())],
                },
                2 => Operation::Combine {
                    dim: COMBINE_DIMS[rng.gen_range(0..COMBINE_DIMS.len())],
                },
                _ => Operation::Connect(ConnectFn::ALL[rng.gen_range(0..ConnectFn::ALL.len())]),
            })
            .collect();
        Architecture::new(ops, k, classes)
    }

    /// Counts ops of a given type.
    pub fn count(&self, ty: OpType) -> usize {
        self.ops.iter().filter(|o| o.op_type() == ty).count()
    }

    /// Trainable parameter count of the realised model (combine layers plus
    /// the pooled classifier head) — Table II's "Size" column without
    /// instantiating any weights.
    pub fn param_count(&self, in_dim: usize, head_hidden: &[usize]) -> usize {
        let mut params = 0usize;
        let mut cur = in_dim;
        for (op, after) in self.ops.iter().zip(self.dim_trace(in_dim)) {
            if let Operation::Combine { dim } = op {
                params += cur * dim + dim;
            }
            cur = after;
        }
        let mut hc = 2 * cur; // max ‖ mean pooling
        for &hd in head_hidden {
            params += hc * hd + hd;
            hc = hd;
        }
        params + hc * self.classes + self.classes
    }

    /// Model size in MB at 4 bytes per parameter.
    pub fn size_mb(&self, in_dim: usize, head_hidden: &[usize]) -> f64 {
        self.param_count(in_dim, head_hidden) as f64 * 4.0 / (1024.0 * 1024.0)
    }

    /// The op-type genome (inverse of [`Architecture::from_genome`] modulo
    /// function sets).
    pub fn op_types(&self) -> Vec<OpType> {
        self.ops.iter().map(Operation::op_type).collect()
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        write!(f, "  Classifier ({} classes, k={})", self.classes, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_arch() -> Architecture {
        Architecture::new(
            vec![
                Operation::Sample(SampleFn::Knn),
                Operation::Combine { dim: 64 },
                Operation::Aggregate {
                    agg: Aggregator::Max,
                    msg: MessageType::TargetRel,
                },
            ],
            10,
            4,
        )
    }

    #[test]
    fn dim_trace_follows_semantics() {
        let a = toy_arch();
        // 3 -> sample keeps 3 -> combine 64 -> TargetRel doubles to 128.
        assert_eq!(a.dim_trace(3), vec![3, 64, 128]);
        assert_eq!(a.out_dim(3), 128);
    }

    #[test]
    fn skip_concat_then_add() {
        let a = Architecture::new(
            vec![
                Operation::Combine { dim: 32 },
                Operation::Connect(ConnectFn::Skip), // 32 vs skip=3 -> concat 35
                Operation::Connect(ConnectFn::Skip), // 35 vs skip=35 -> add, stays 35
            ],
            5,
            2,
        );
        assert_eq!(a.dim_trace(3), vec![32, 35, 35]);
    }

    #[test]
    fn distance_message_is_one_wide() {
        assert_eq!(MessageType::Distance.width(64), 1);
        assert_eq!(MessageType::Full.width(64), 192);
    }

    #[test]
    fn genome_round_trip() {
        let types = vec![
            OpType::Sample,
            OpType::Combine,
            OpType::Aggregate,
            OpType::Connect,
        ];
        let upper = FunctionSet::dgcnn_like(64);
        let lower = FunctionSet {
            aggregator: Aggregator::Mean,
            message: MessageType::SourcePos,
            sample: SampleFn::Random,
            connect: ConnectFn::Identity,
            combine_dim: 32,
        };
        let a = Architecture::from_genome(&types, upper, lower, 20, 40);
        assert_eq!(a.op_types(), types);
        // Upper half (positions 0,1) uses EdgeConv-ish functions.
        assert_eq!(a.ops[1], Operation::Combine { dim: 64 });
        // Lower half (positions 2,3) uses the other set.
        assert_eq!(
            a.ops[2],
            Operation::Aggregate {
                agg: Aggregator::Mean,
                msg: MessageType::SourcePos
            }
        );
        assert_eq!(a.ops[3], Operation::Connect(ConnectFn::Identity));
    }

    #[test]
    fn param_count_matches_instantiated_model_size() {
        // Cross-checked against the lowering's param accounting.
        let a = toy_arch();
        let lowered = a.lower(64, &[24]);
        let counted = a.param_count(3, &[24]);
        assert_eq!(counted as f64 * 4.0, lowered.param_bytes);
    }

    #[test]
    fn function_space_size_matches_tab1() {
        // 4 aggregators × 7 messages × 2 samples × 2 connects × 6 widths.
        assert_eq!(FunctionSet::space_size(), 4 * 7 * 2 * 2 * 6);
    }

    #[test]
    fn display_matches_fig10_style() {
        let op = Operation::Aggregate {
            agg: Aggregator::Max,
            msg: MessageType::TargetRel,
        };
        assert_eq!(op.to_string(), "Aggregate (Target||Rel pos, max)");
    }
}
