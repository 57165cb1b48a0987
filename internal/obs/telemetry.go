package obs

import "log/slog"

// TrainTelemetry exports training-loop progress (per-head loss curves,
// gradient norms, learning rate, divergence rollbacks) as metrics and
// structured log lines. Methods are nil-safe so training code can emit
// unconditionally; the families register at construction so /metrics
// advertises them even before the first refit.
type TrainTelemetry struct {
	logger *slog.Logger

	loss      *GaugeVec
	gradNorm  *GaugeVec
	lr        *GaugeVec
	epochs    *CounterVec
	rollbacks *CounterVec
}

// NewTrainTelemetry registers the trout_train_* families on r. logger
// may be nil to disable the per-epoch log lines.
func NewTrainTelemetry(r *Registry, logger *slog.Logger) *TrainTelemetry {
	return &TrainTelemetry{
		logger: logger,
		loss: r.GaugeVec("trout_train_loss",
			"Training loss of the most recent epoch.", "head"),
		gradNorm: r.GaugeVec("trout_train_grad_norm",
			"Global gradient L2 norm of the most recent epoch's last step.", "head"),
		lr: r.GaugeVec("trout_train_learning_rate",
			"Learning rate in effect for the most recent epoch.", "head"),
		epochs: r.CounterVec("trout_train_epochs_total",
			"Training epochs completed since process start.", "head"),
		rollbacks: r.CounterVec("trout_train_rollbacks_total",
			"Divergence rollbacks (checkpoint restores) since process start.", "head"),
	}
}

// ObserveEpoch records one completed epoch for the named model head.
// Safe on a nil receiver.
func (t *TrainTelemetry) ObserveEpoch(head string, epoch int, loss, gradNorm, lr float64) {
	if t == nil {
		return
	}
	t.loss.Set(loss, head)
	t.gradNorm.Set(gradNorm, head)
	t.lr.Set(lr, head)
	t.epochs.Inc(head)
	if t.logger != nil {
		t.logger.Info("train_epoch",
			slog.String("head", head),
			slog.Int("epoch", epoch),
			slog.Float64("loss", loss),
			slog.Float64("grad_norm", gradNorm),
			slog.Float64("learning_rate", lr),
		)
	}
}

// ObserveRollback records a divergence rollback for the named head.
// Safe on a nil receiver.
func (t *TrainTelemetry) ObserveRollback(head string, epoch, events int, lr float64) {
	if t == nil {
		return
	}
	t.rollbacks.Inc(head)
	t.lr.Set(lr, head)
	if t.logger != nil {
		t.logger.Warn("train_rollback",
			slog.String("head", head),
			slog.Int("epoch", epoch),
			slog.Int("events", events),
			slog.Float64("learning_rate", lr),
		)
	}
}
