// Quickstart: protect a simulated end-user machine with Scarecrow and
// watch it deactivate an evasive ransomware sample.
//
// The flow mirrors a real deployment (Figure 2 of the paper): build the
// deceptive resource database, wrap it in an engine, Deploy the controller
// on the machine, and launch the untrusted program through it.
package main

import (
	"fmt"
	"time"

	"scarecrow/internal/core"
	"scarecrow/internal/malware"
	"scarecrow/internal/trace"
	"scarecrow/internal/winapi"
	"scarecrow/internal/winsim"
)

func main() {
	// A simulated, actively used end-user Windows 7 machine.
	machine := winsim.NewEndUserMachine(42)
	system := winapi.NewSystem(machine)

	// The untrusted download: the evasive WannaCry variant of Case II.
	sample := malware.WannaCry()
	sample.Register(system)
	machine.FS.Touch(sample.Image, 180<<10)

	// Deploy Scarecrow: stock deceptive resources, recommended config.
	engine := core.NewEngine(core.NewDB(), core.RecommendedConfig(machine.Profile))
	controller, err := core.Deploy(system, engine)
	if err != nil {
		panic(err)
	}

	// Launch the suspicious program through the controller (it becomes the
	// parent process and injects scarecrow.dll before the first
	// instruction).
	target, err := controller.LaunchTarget(sample.Image, "invoice.pdf.exe")
	if err != nil {
		panic(err)
	}
	system.Run(time.Minute)

	// What happened?
	summary := machine.Tracer.Summarize(func(e trace.Event) bool {
		return e.PID >= target.PID
	})
	fmt.Printf("durable changes by the sample: %d\n", summary.Mutations())
	fmt.Printf("files encrypted: %d\n", len(summary.FilesDeleted))
	if first, ok := controller.Session.FirstTrigger(); ok {
		fmt.Printf("deactivating trigger: %s\n", first)
	}
	fmt.Println("the kill-switch domain was sinkholed; the ransomware exited before touching a file")
}
