<?php
$r0 = $_GET['tab'];
if ($a == 1) {
    $r0 = $r0 . '-a';
    if ($b == 2) {
        $r0 = $r0 . '-b';
    } else {
        $r0 = htmlspecialchars($r0);
    }
}
if ($c == 3) {
    if ($d == 4) {
        $r0 = $r0 . '-d';
    } else {
        $r0 = htmlspecialchars($r0);
    }
}
switch ($_GET['view']) {
case 'list': $r0 = $r0 . '-list'; break;
case 'grid': $r0 = htmlspecialchars($r0); break;
case 'tree': $r0 = $r0 . '-tree'; break;
case 'card': $r0 = $r0 . '-card'; break;
case 'map': $r0 = htmlspecialchars($r0); break;
case 'feed': $r0 = $r0 . '-feed'; break;
case 'wall': $r0 = $r0 . '-wall'; break;
case 'cal': $r0 = $r0 . '-cal'; break;
}
echo '<p>' . $r0 . '</p>';
mysql_query("SELECT v FROM t0 WHERE k='" . $r0 . "'");
?>
