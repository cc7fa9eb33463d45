"""From-scratch float32 network: layers, profiles, training, checkpoints."""
