package transport

import (
	"fmt"
	"net"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/robust"
)

// ClientConfig configures a federated training client. Local-training
// settings (epochs, batch size, proximal λ, LR scale, the DP stage and any
// attack directive) are NOT configured here: the server's method
// composition ships them with every model push, so the engine controls
// local training on both fabrics.
type ClientConfig struct {
	Addr          string
	ID            uint32
	LatencyHintMs uint32
	// ArtificialDelay is added before each upload — the transport-mode
	// equivalent of the paper's injected straggler delays.
	ArtificialDelay time.Duration

	Data *dataset.ClientData
	Net  *nn.Network
	Opt  *opt.Adam

	// Codec compresses uploads; defaults to polyline precision 4. It must
	// match the server's Run.Codec: the server drops a client whose update
	// arrives in any other codec than the push it answers.
	Codec codec.Channel
	// Seed anchors the fixed pseudo-random mini-batch schedule (§6); it
	// must match the server's Run.Seed for cross-fabric reproducibility.
	Seed uint64
	// Classes is the size of the label space, which a server-directed label
	// flip needs; fedclient fills it from its dataset.
	Classes int
	// Logf receives progress lines; nil silences logging.
	Logf func(format string, args ...any)
}

// dialWindow bounds how long the initial connect retries before giving up.
const dialWindow = 5 * time.Second

// dialRetry connects to addr, retrying failed attempts until dialWindow
// closes (server and clients start concurrently in real deployments;
// "connection refused" during the server's first moments is expected, not
// fatal).
func dialRetry(addr string) (net.Conn, error) {
	deadline := time.Now().Add(dialWindow)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// RunClient connects, registers and serves training rounds until the server
// sends a shutdown (returns nil) or the connection fails.
func RunClient(cfg ClientConfig) error {
	if cfg.Data == nil || cfg.Net == nil || cfg.Opt == nil {
		return fmt.Errorf("transport: client needs data, model and optimizer")
	}
	if cfg.Codec == nil {
		cfg.Codec = codec.NewPolyline(4)
	}
	conn, err := dialRetry(cfg.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	reg := register{
		clientID:      cfg.ID,
		numSamples:    uint32(cfg.Data.NumTrain()),
		latencyHintMs: cfg.LatencyHintMs,
	}
	if err := WriteFrame(conn, msgRegister, reg.marshal()); err != nil {
		return err
	}

	c := &client{cfg: cfg, conn: conn}
	c.trainer = fl.NewLocalClient(int(cfg.ID), cfg.Data, cfg.Net, cfg.Opt, cfg.Seed)
	c.shapes = cfg.Net.ParamShapes()
	c.global = make([]float64, cfg.Net.NumParams())
	limit := frameLimit(c.shapes)

	for {
		// The frame buffer is borrowed once the push's header arrives and
		// goes back as soon as the model is decoded out of it: the client
		// holds no wire buffer while it waits or trains.
		typ, payload, err := readFrame(conn, &c.rhdr, limit)
		if err != nil {
			return fmt.Errorf("transport: client %d read: %w", cfg.ID, err)
		}
		switch typ {
		case msgShutdown:
			frames.Put(payload)
			if cfg.Logf != nil {
				cfg.Logf("client %d: shutdown", cfg.ID)
			}
			return nil
		case MsgModelPush:
			spec, err := c.receive(payload)
			frames.Put(payload)
			if err != nil {
				return err
			}
			if err := c.round(spec); err != nil {
				return err
			}
		default:
			frames.Put(payload)
			return fmt.Errorf("transport: client %d unexpected message type %d", cfg.ID, typ)
		}
	}
}

// client is RunClient's per-connection state.
type client struct {
	cfg     ClientConfig
	conn    net.Conn
	trainer *fl.Client
	shapes  []codec.ShapeInfo
	rhdr    [frameHeaderLen]byte
	// global is the pushed model this client trains from: decoded out of the
	// push frame, read by TrainLocal for the whole round (start point and
	// proximal anchor).
	global []float64
}

// receive parses a push payload and decodes its model into c.global.
func (c *client) receive(payload []byte) (PushSpec, error) {
	spec, modelMsg, err := parseModelPush(payload)
	if err != nil {
		return spec, err
	}
	if err := codec.UnmarshalModelInto(modelMsg, c.global); err != nil {
		return spec, fmt.Errorf("transport: client %d unmarshal: %w", c.cfg.ID, err)
	}
	return spec, nil
}

// round trains one local round from c.global as the push instructs and
// uploads the result in a frame built in place in a borrowed buffer.
func (c *client) round(spec PushSpec) error {
	cfg := c.cfg
	// The push format carries batch size 0 (an edge's adoption pushes to its
	// root), but local training needs at least one sample per mini-batch. A
	// u32 at or above 2³¹ decodes negative where int is 32 bits.
	if spec.Batch < 1 {
		return fmt.Errorf("transport: client %d: push for round %d has batch size %d", cfg.ID, spec.Round, spec.Batch)
	}
	// The push is this round's only orders: local work, the DP stage and the
	// attack directive (honest when the directive byte is 0).
	c.trainer.Attack = robust.Attack{
		Kind:    robust.Kind(spec.attack),
		Scale:   spec.attackScale,
		Classes: cfg.Classes,
	}
	lc := fl.LocalConfig{
		Epochs:    spec.Epochs,
		BatchSize: spec.Batch,
		Lambda:    spec.Lambda,
		Round:     spec.Round,
		DPClip:    spec.dpClip,
		DPNoise:   spec.dpNoise,
		LRScale:   spec.lrScale,
	}
	w, steps := c.trainer.TrainLocal(c.global, lc)
	if cfg.ArtificialDelay > 0 {
		time.Sleep(cfg.ArtificialDelay)
	}

	frame := appendUpdateHeader(beginFrame(newFrame(), MsgModelUpdate),
		cfg.ID, uint32(cfg.Data.NumTrain()), spec.Round)
	frame, err := codec.AppendModel(frame, cfg.Codec, c.shapes, w)
	if err == nil {
		err = writeFrame(c.conn, frame)
	}
	frames.Put(frame)
	if err != nil {
		return err
	}
	// Guarded rather than defaulted to a no-op: boxing the arguments would
	// cost allocations every round with nobody listening.
	if cfg.Logf != nil {
		cfg.Logf("client %d: round %d done (%d steps, %d epochs)", cfg.ID, spec.Round, steps, spec.Epochs)
	}
	return nil
}
