from benchmarks.perf.harness import main

raise SystemExit(main())
