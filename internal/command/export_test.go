package command

// ZeroCommands returns the zero command of every verb row, in table
// order: the external tests hold another layer's per-verb code to the
// table through it.
func ZeroCommands() []Command {
	cmds := make([]Command, len(verbs))
	for i, v := range verbs {
		cmds[i] = v.cmd
	}
	return cmds
}
