package transport

import (
	"fmt"
	"net"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/robust"
)

// ClientConfig configures a federated training client. Local-training
// settings (epochs, batch size, proximal λ, mini-batch schedule) are NOT
// configured here: the server's method composition ships them with every
// model push, so the engine controls local training on both fabrics.
type ClientConfig struct {
	Addr          string
	ID            uint32
	LatencyHintMs uint32
	// ArtificialDelay is added before each upload — the transport-mode
	// equivalent of the paper's injected straggler delays.
	ArtificialDelay time.Duration

	Data *dataset.ClientData
	Net  *nn.Network
	Opt  opt.Optimizer

	// Codec compresses uploads; defaults to polyline precision 4. It must
	// match the server's Run.Codec for the deployment to reproduce the
	// simulator's channel.
	Codec codec.Channel
	// Seed anchors the fixed pseudo-random mini-batch schedule (§6); it
	// must match the server's Run.Seed for cross-fabric reproducibility.
	Seed uint64
	// Attack forces this client's malicious behavior regardless of server
	// directives (fedclient -attack). When only Classes is set the client
	// is honest but can execute a server-directed label flip — fedclient
	// always fills Classes from its dataset.
	Attack robust.Attack
	// DPClip > 0 forces the local DP stage (clip norm DPClip, noise
	// multiplier DPNoise), overriding whatever the server's push carries.
	DPClip  float64
	DPNoise float64
	// UplinkTopKFrac > 0 compresses uploads as a top-k sparsified delta
	// against the round's pushed global instead of Codec — the flat
	// client→server leg of the PR 7 edge uplink compression. The server
	// decodes it statelessly per round (the model message self-describes),
	// so no server flag is needed.
	UplinkTopKFrac float64
	Logf           func(format string, args ...any)
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
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	conn, err := dialRetry(cfg.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	reg := Register{
		ClientID:      cfg.ID,
		NumSamples:    uint32(cfg.Data.NumTrain()),
		LatencyHintMs: cfg.LatencyHintMs,
	}
	if err := WriteFrame(conn, MsgRegister, reg.Marshal()); err != nil {
		return err
	}

	c := &client{cfg: cfg, conn: conn}
	c.trainer = fl.NewLocalClient(int(cfg.ID), cfg.Data, cfg.Net, cfg.Opt, cfg.Seed)
	for _, s := range cfg.Net.ParamShapes() {
		c.shapes = append(c.shapes, codec.ShapeInfo{Name: s.Name, Dims: s.Dims})
	}
	c.global = make([]float64, cfg.Net.NumParams())
	if cfg.UplinkTopKFrac > 0 {
		c.topk = &codec.TopK{Frac: cfg.UplinkTopKFrac}
	}
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
		case MsgShutdown:
			frames.Put(payload)
			cfg.Logf("client %d: shutdown", cfg.ID)
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
	// proximal anchor) and by the top-k uplink as its delta reference.
	global []float64
	topk   *codec.TopK // uplink codec override (UplinkTopKFrac), else nil
	delta  []float64   // top-k delta scratch
}

// receive parses a push payload and decodes its model into c.global.
func (c *client) receive(payload []byte) (PushSpec, error) {
	spec, modelMsg, err := ParseModelPush(payload)
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
	// A locally forced attack wins; otherwise follow the server's
	// per-push directive (honest when the directive byte is 0).
	atk := cfg.Attack
	if !atk.Active() && spec.Attack != 0 {
		atk = robust.Attack{
			Kind:    robust.Kind(spec.Attack),
			Scale:   spec.AttackScale,
			Classes: cfg.Attack.Classes,
		}
	}
	c.trainer.Attack = atk
	lc := fl.LocalConfig{
		Epochs:    spec.Epochs,
		BatchSize: spec.Batch,
		Lambda:    spec.Lambda,
		Round:     spec.Round,
		DPClip:    spec.DPClip,
		DPNoise:   spec.DPNoise,
		LRScale:   spec.LRScale,
	}
	if cfg.DPClip > 0 {
		lc.DPClip, lc.DPNoise = cfg.DPClip, cfg.DPNoise
	}
	w, steps := c.trainer.TrainLocal(c.global, lc)
	if cfg.ArtificialDelay > 0 {
		time.Sleep(cfg.ArtificialDelay)
	}

	frame := appendUpdateHeader(beginFrame(frames.Get(0), MsgModelUpdate),
		cfg.ID, uint32(cfg.Data.NumTrain()), spec.Round)
	var err error
	if c.topk != nil {
		// Stateless per-round delta against the decoded push: the server
		// reconstructs against the decode of its own frame, so lossy
		// downlink codecs cancel exactly and a dropped update
		// desynchronizes nothing.
		frame, c.delta, err = edge.AppendUplink(frame, c.topk, c.shapes, c.global, w, c.delta)
	} else {
		frame, err = codec.AppendModel(frame, cfg.Codec, c.shapes, w)
	}
	if err == nil {
		err = writeFrame(c.conn, frame)
	}
	frames.Put(frame)
	if err != nil {
		return err
	}
	cfg.Logf("client %d: round %d done (%d steps, %d epochs)", cfg.ID, spec.Round, steps, spec.Epochs)
	return nil
}
