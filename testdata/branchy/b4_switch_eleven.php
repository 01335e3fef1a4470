<?php
$r0 = $_GET['mode'];
switch ($_GET['op']) {
case 'a': $r0 = $r0 . '-a'; break;
case 'b': $r0 = $r0 . '-b'; break;
case 'c': $r0 = $r0 . '-c'; break;
case 'd': $r0 = $r0 . '-d'; break;
case 'e': $r0 = $r0 . '-e'; break;
case 'f': $r0 = $r0 . '-f'; break;
case 'g': $r0 = $r0 . '-g'; break;
case 'h': $r0 = $r0 . '-h'; break;
case 'i': $r0 = $r0 . '-i'; break;
case 'j': $r0 = htmlspecialchars($r0); break;
case 'k': $r0 = $r0 . '-k'; break;
}
if ($c0 == 7) {
    $r0 = $r0 . '-0';
} else {
    $r0 = htmlspecialchars($r0);
}
if ($c1 == 9) {
    $r0 = $r0 . '-1';
}
echo $r0;
mysql_query("SELECT v FROM t0 WHERE k='" . $r0 . "'");
echo '<p>' . $r0 . '</p>';
?>
