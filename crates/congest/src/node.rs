use rand::rngs::StdRng;

use rwbc_graph::{Graph, Neighbors, NodeId};

use crate::Message;

/// A message delivered to a node, tagged with its sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incoming<M> {
    /// The neighbor that sent the message in the previous round.
    pub from: NodeId,
    /// The message itself.
    pub msg: M,
}

impl<M: crate::wire::WireState> crate::wire::WireState for Incoming<M> {
    fn encode_state(&self, w: &mut crate::wire::BitWriter) {
        self.from.encode_state(w);
        self.msg.encode_state(w);
    }
    fn decode_state(r: &mut crate::wire::BitReader<'_>) -> Option<Incoming<M>> {
        Some(Incoming {
            from: crate::wire::WireState::decode_state(r)?,
            msg: M::decode_state(r)?,
        })
    }
}

/// The per-round view a node program has of its environment.
///
/// A CONGEST node knows only: its own id, its neighbors' ids, the global
/// parameter `n`, the round number, and its private coins. `Context`
/// exposes exactly that — node programs cannot observe the rest of the
/// graph, which keeps algorithm implementations honest.
#[derive(Debug)]
pub struct Context<'a, M> {
    node: NodeId,
    graph: &'a Graph,
    rng: &'a mut StdRng,
    round: usize,
    /// The per-edge bit budget this program's messages must fit.
    budget_bits: usize,
    outbox: &'a mut Vec<(NodeId, M)>,
    /// Per-node event buffer when the run is traced. Buffers are
    /// drained by the engine in ascending node order each round, so
    /// program-emitted events stay deterministic at any thread count.
    trace: Option<&'a mut Vec<crate::trace::TraceEvent>>,
}

impl<'a, M: Message> Context<'a, M> {
    pub(crate) fn new(
        node: NodeId,
        graph: &'a Graph,
        rng: &'a mut StdRng,
        round: usize,
        budget_bits: usize,
        outbox: &'a mut Vec<(NodeId, M)>,
    ) -> Context<'a, M> {
        Context {
            node,
            graph,
            rng,
            round,
            budget_bits,
            outbox,
            trace: None,
        }
    }

    /// Attaches a per-node trace buffer (engine-internal).
    pub(crate) fn with_trace(
        mut self,
        trace: Option<&'a mut Vec<crate::trace::TraceEvent>>,
    ) -> Context<'a, M> {
        self.trace = trace;
        self
    }

    /// Whether the run is being traced. Programs should gate event
    /// construction on this so untraced runs pay nothing.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Emits a trace event attributed to this node. A no-op when the
    /// run is untraced.
    pub fn trace(&mut self, event: crate::trace::TraceEvent) {
        if let Some(buf) = self.trace.as_deref_mut() {
            buf.push(event);
        }
    }

    /// Splits the context into its RNG and trace buffer, for adapters
    /// that build a nested [`Context`] around an inner program while
    /// forwarding the trace sink.
    pub(crate) fn rng_and_trace(
        &mut self,
    ) -> (&mut StdRng, Option<&mut Vec<crate::trace::TraceEvent>>) {
        (self.rng, self.trace.as_deref_mut())
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the network (a global constant every node knows,
    /// as assumed by the paper's Algorithm 1 input).
    pub fn network_size(&self) -> usize {
        self.graph.node_count()
    }

    /// The per-edge bit budget of this run: the most bits one message
    /// may carry, `SimConfig::budget_bits` of the network size. Behind an
    /// adapter that frames messages (such as
    /// [`Reliable`](crate::Reliable)) it is what is left for the payload
    /// after the frame's own bits.
    pub fn budget_bits(&self) -> usize {
        self.budget_bits
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.node)
    }

    /// Iterator over this node's neighbors (ascending ids).
    pub fn neighbors(&self) -> Neighbors<'_> {
        self.graph.neighbors(self.node)
    }

    /// The `i`-th neighbor (`0 <= i < degree`), used for uniform moves.
    ///
    /// # Panics
    ///
    /// Panics if `i >= degree()`.
    pub fn neighbor(&self, i: usize) -> NodeId {
        self.graph.neighbor(self.node, i)
    }

    /// Whether `v` is adjacent to this node.
    pub fn is_neighbor(&self, v: NodeId) -> bool {
        self.graph.has_edge(self.node, v)
    }

    /// The current round number (0 during `on_start`).
    pub fn round(&self) -> usize {
        self.round
    }

    /// This node's private deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The underlying graph, for adapters in this crate that construct a
    /// nested [`Context`] around an inner program (e.g. reliable delivery).
    /// Not public: node programs must not observe global topology.
    pub(crate) fn graph_ref(&self) -> &'a Graph {
        self.graph
    }

    /// Queues `msg` for delivery to neighbor `to` at the start of the next
    /// round. Budget enforcement happens when the round is committed; a
    /// send to a non-neighbor is detected there as well.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Queues a copy of `msg` to every neighbor (a "local broadcast" —
    /// one message per incident edge, permitted by the model).
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        // Push straight from the neighbor iterator: `graph` and `outbox`
        // are disjoint fields, so no intermediate `Vec<NodeId>` is needed
        // to appease the borrow checker.
        for v in self.graph.neighbors(self.node) {
            self.outbox.push((v, msg.clone()));
        }
    }
}

/// A node-local distributed program executed by the [`Simulator`].
///
/// The simulator drives the program through the synchronous schedule:
///
/// 1. `on_start` once, before round 1 (sends are delivered in round 1);
/// 2. `on_round` every round, with all messages sent to this node in the
///    previous round;
/// 3. the run ends when every program reports [`NodeProgram::is_terminated`]
///    and no messages are in flight.
///
/// [`Simulator`]: crate::Simulator
pub trait NodeProgram {
    /// The message type this protocol exchanges.
    type Msg: Message;

    /// Called once before the first round.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Called every round with the messages received this round.
    /// The inbox is sorted by sender id (deterministic delivery order).
    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>, inbox: &[Incoming<Self::Msg>]);

    /// Local termination flag. Termination of the *run* additionally
    /// requires an empty network.
    fn is_terminated(&self) -> bool;

    /// Notification that the channel to neighbor `peer` has been declared
    /// permanently dead by a failure detector (e.g.
    /// [`Reliable::with_failure_detection`]). Messages to and from `peer`
    /// will never be delivered again; a survivor-aware protocol should
    /// patch its live-neighbor set here. Declarations are irrevocable and
    /// fire at most once per peer. The default is a no-op: protocols that
    /// predate (or don't care about) failure detection keep their exact
    /// behavior.
    ///
    /// [`Reliable::with_failure_detection`]: crate::Reliable::with_failure_detection
    fn on_neighbor_down(&mut self, peer: rwbc_graph::NodeId) {
        let _ = peer;
    }

    /// Delivery-layer counters, if this program wraps another behind a
    /// reliability adapter. The default (`None`) means "no delivery layer";
    /// [`Simulator::run`] folds `Some` values into the run's [`RunStats`].
    ///
    /// [`Simulator::run`]: crate::Simulator::run
    /// [`RunStats`]: crate::RunStats
    fn reliability_stats(&self) -> Option<crate::ReliabilityStats> {
        None
    }
}
